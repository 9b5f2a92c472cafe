"""Image-quality metrics (MSE, Gaussian-windowed SSIM) and the robust
histogram normalization applied before scoring."""

import numpy as np

from .errors import ShapeError


SSIM_WINDOW = 11  # side of the Gaussian SSIM window, in pixels


def histogram_normalize(img):
    """Robust rescale to [0, 1]: the 1st/99th percentiles map to 0/1 and
    everything outside is clamped. A constant image maps to all 0.5."""
    img = np.asarray(img, dtype=np.float64)
    p1, p99 = np.percentile(img, [1, 99])
    if p99 <= p1:
        return np.full_like(img, 0.5)
    return np.clip((img - p1) / (p99 - p1), 0.0, 1.0)


def mse(a, b):
    """Mean squared error."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"mse shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def gaussian_window(size=11, sigma=1.5):
    """Normalized 2-D Gaussian window."""
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    win = np.outer(g, g)
    return win / win.sum()


def _local_stats(img, window):
    k = window.shape[0]
    win = np.lib.stride_tricks.sliding_window_view(img, (k, k))
    return np.einsum("ijkl,kl->ij", win, window)


def ssim(a, b, window_size=SSIM_WINDOW, sigma=1.5, k1=0.01, k2=0.03, data_range=1.0):
    """Structural similarity with Gaussian-weighted local statistics,
    averaged over all valid window positions."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"ssim shape mismatch: {a.shape} vs {b.shape}")
    if min(a.shape) < window_size:
        raise ShapeError(f"image {a.shape} smaller than the {window_size}-pixel window")
    win = gaussian_window(window_size, sigma)
    mu_a = _local_stats(a, win)
    mu_b = _local_stats(b, win)
    saa = _local_stats(a * a, win) - mu_a * mu_a
    sbb = _local_stats(b * b, win) - mu_b * mu_b
    sab = _local_stats(a * b, win) - mu_a * mu_b
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * sab + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (saa + sbb + c2)
    return float(np.mean(num / den))
