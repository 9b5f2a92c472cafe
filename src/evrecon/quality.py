"""Image quality, written once for the training loss and the metrics: the
robust per-frame percentile rescale, MSE and Gaussian-windowed SSIM (Wang
et al., IEEE TIP 2004). The rescale and SSIM are built from autodiff ops,
so the loss differentiates them; `score` runs them under `no_grad`. A
frame is the last two axes of an array."""

import numpy as np

from . import autodiff as ad
from .errors import ShapeError

SSIM_WINDOW = 11  # side of the Gaussian SSIM window, in pixels
# 1-D taps of the sigma-1.5 Gaussian; the window is np.outer(SSIM_TAPS, SSIM_TAPS)
SSIM_TAPS = np.exp(-(np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0) ** 2 / (2.0 * 1.5 ** 2))
SSIM_TAPS /= SSIM_TAPS.sum()
_C1, _C2 = 0.01 ** 2, 0.03 ** 2  # (k1 L)^2 and (k2 L)^2 for the data range L = 1


def histogram_normalize(x):
    """Robust per-frame rescale to [0, 1]: the frame's 1st/99th percentiles
    map to 0/1 and everything outside is clamped. The percentiles are
    constants for the gradient; a flat frame maps to 0.5 with a zero
    gradient."""
    x = ad.as_tensor(x)
    p1, p99 = np.percentile(x.data, [1, 99], axis=tuple(range(x.ndim))[-2:], keepdims=True)
    flat = p99 <= p1
    with np.errstate(divide="ignore"):
        scale = np.where(flat, 0.0, 1.0 / (p99 - p1))
    return ad.clip((x - p1) * scale + 0.5 * flat, 0.0, 1.0)


def mse(a, b):
    """Mean squared error."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"mse shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def ssim(a, b):
    """Structural similarity with Gaussian-weighted local statistics,
    averaged over every valid window position of every frame; a scalar
    Tensor. A frame smaller than the window raises ShapeError."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"ssim shape mismatch: {a.shape} vs {b.shape}")

    def local_mean(x):
        return ad.separable_filter(x, SSIM_TAPS)

    mu_a, mu_b = local_mean(a), local_mean(b)
    saa = local_mean(a * a) - mu_a * mu_a
    sbb = local_mean(b * b) - mu_b * mu_b
    sab = local_mean(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + _C1) * (2.0 * sab + _C2)
    den = (mu_a * mu_a + mu_b * mu_b + _C1) * (saa + sbb + _C2)
    # as 1 - mean deficit, so that identical frames score exactly 1
    return 1.0 - ((den - num) / den).mean()


def score(pred, gt):
    """(MSE, SSIM) of the histogram-normalized prediction against the
    ground truth of the same shape, averaged over the frames. SSIM is NaN
    for frames smaller than the SSIM window."""
    with ad.no_grad():
        p = histogram_normalize(pred).data
        value = mse(p, gt)
        if min(p.shape[-2:]) < SSIM_WINDOW:
            return value, float("nan")
        return value, ssim(p, gt).item()
