import numpy as np
import pytest

from evrecon import autodiff as ad
from evrecon.autodiff import Tensor
from evrecon.errors import ShapeError
from evrecon.quality import SSIM_TAPS, histogram_normalize, mse, score, ssim
from evrecon.training import reconstruction_loss


# -- oracles: the code the shared quality functions replaced -----------------

def oracle_gaussian_window(size=11, sigma=1.5):
    """Normalized 2-D Gaussian window."""
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    win = np.outer(g, g)
    return win / win.sum()


def oracle_local_stats(img, window):
    k = window.shape[0]
    win = np.lib.stride_tricks.sliding_window_view(img, (k, k))
    return np.einsum("ijkl,kl->ij", win, window)


def oracle_ssim(a, b, window_size=11, sigma=1.5, k1=0.01, k2=0.03, data_range=1.0):
    """numpy SSIM of two 2-D images, averaged over all valid window positions."""
    win = oracle_gaussian_window(window_size, sigma)
    mu_a = oracle_local_stats(a, win)
    mu_b = oracle_local_stats(b, win)
    saa = oracle_local_stats(a * a, win) - mu_a * mu_a
    sbb = oracle_local_stats(b * b, win) - mu_b * mu_b
    sab = oracle_local_stats(a * b, win) - mu_a * mu_b
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * sab + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (saa + sbb + c2)
    return float(np.mean(num / den))


def oracle_histogram_normalize(img):
    """numpy rescale with one percentile pair over the whole array."""
    img = np.asarray(img, dtype=np.float64)
    p1, p99 = np.percentile(img, [1, 99])
    if p99 <= p1:
        return np.full_like(img, 0.5)
    return np.clip((img - p1) / (p99 - p1), 0.0, 1.0)


def oracle_diff_histogram_normalize(pred):
    """The loss's autodiff rescale: one percentile pair over the whole
    (N,1,H,W) batch, treated as constants."""
    p1, p99 = np.percentile(pred.data, [1, 99])
    if p99 <= p1:
        return pred * 0.0 + 0.5
    return ad.clip((pred - p1) * (1.0 / (p99 - p1)), 0.0, 1.0)


def oracle_diff_ssim(a, b, window_size=11, sigma=1.5, k1=0.01, k2=0.03):
    """The loss's SSIM: each local statistic is an 11x11 `conv2d`."""
    win = Tensor(oracle_gaussian_window(window_size, sigma)[None, None])

    def stats(x):
        return ad.conv2d(x, win)

    mu_a, mu_b = stats(a), stats(b)
    saa = stats(a * a) - mu_a * mu_a
    sbb = stats(b * b) - mu_b * mu_b
    sab = stats(a * b) - mu_a * mu_b
    c1, c2 = k1 ** 2, k2 ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * sab + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (saa + sbb + c2)
    return (num / den).mean()


def oracle_reconstruction_loss(pred, gt):
    """L1 + 0.5 (1 - SSIM) of (N,1,H,W) Tensors through the oracles."""
    pred_n = oracle_diff_histogram_normalize(pred)
    return (pred_n - gt).abs().mean() + 0.5 * (1.0 - oracle_diff_ssim(pred_n, gt))


def assert_close(new, old, rel=1e-12):
    """max |new - old| within `rel` of max |old|."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert np.max(np.abs(new - old)) <= rel * np.max(np.abs(old))


def value_and_grads(f, *arrays):
    """f's value and its gradient with respect to each array."""
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    out = f(*ts)
    out.backward()
    return out.item(), [t.grad for t in ts]


def image_pair(shape, seed):
    """A frame and a noisy copy of it, so SSIM sits well away from 0."""
    rng = np.random.default_rng(seed)
    a = rng.random(shape)
    return a, np.clip(a + rng.normal(scale=0.2, size=shape), 0.0, 1.0)


SIZES = [(1, 1, 11, 11), (1, 1, 14, 14), (1, 1, 32, 32), (1, 1, 180, 240), (2, 1, 32, 32)]


# -- the shared functions ----------------------------------------------------

class TestHistogramNormalize:
    def test_output_range(self):
        rng = np.random.default_rng(71)
        out = histogram_normalize(rng.standard_normal((20, 20)) * 10 + 3).data
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_constant_image_maps_to_half(self):
        out = histogram_normalize(np.full((8, 8), 7.0)).data
        np.testing.assert_array_equal(out, np.full((8, 8), 0.5))

    def test_outliers_clamped(self):
        img = np.zeros(1000)
        img[:500] = np.linspace(0, 1, 500)
        img[0] = 1e6  # single hot pixel must not crush the scale
        out = histogram_normalize(img).data
        assert np.median(out[:500]) > 0.1

    def test_affine_invariance(self):
        rng = np.random.default_rng(72)
        img = rng.random((16, 16))
        np.testing.assert_allclose(histogram_normalize(img).data,
                                   histogram_normalize(3.0 * img - 5.0).data,
                                   atol=1e-12)

    @pytest.mark.parametrize("shape", SIZES[:4])
    def test_matches_oracles(self, shape):
        rng = np.random.default_rng(81)
        x = rng.standard_normal(shape) * 3.0 + 1.0
        weights = rng.random(shape)
        new = histogram_normalize(x).data
        # the numpy oracle divides where the loss multiplied by the inverse
        assert_close(new[0, 0], oracle_histogram_normalize(x[0, 0]))
        v_new, (g_new,) = value_and_grads(lambda t: (histogram_normalize(t) * weights).sum(), x)
        v_old, (g_old,) = value_and_grads(
            lambda t: (oracle_diff_histogram_normalize(t) * weights).sum(), x)
        assert v_new == v_old
        np.testing.assert_array_equal(g_new, g_old)

    def test_percentiles_per_frame(self):
        # the loss used to take one percentile pair over the whole batch,
        # so one scene's range rescaled another's
        rng = np.random.default_rng(82)
        x = rng.standard_normal((2, 1, 16, 16)) * np.array([1.0, 50.0])[:, None, None, None]
        weights = rng.random(x.shape)
        value, (grad,) = value_and_grads(lambda t: (histogram_normalize(t) * weights).sum(), x)
        expected = 0.0
        for i in range(2):
            v, (g,) = value_and_grads(
                lambda t: (oracle_diff_histogram_normalize(t) * weights[i:i + 1]).sum(),
                x[i:i + 1])
            expected += v
            np.testing.assert_array_equal(grad[i:i + 1], g)
        assert value == pytest.approx(expected, rel=1e-15)
        joint = oracle_diff_histogram_normalize(Tensor(x)).data
        assert np.abs(histogram_normalize(x).data - joint).max() > 0.1

    def test_flat_frame_maps_to_half_with_zero_gradient(self):
        rng = np.random.default_rng(83)
        x = rng.random((2, 1, 12, 12))
        x[0] = 3.0
        _, (grad,) = value_and_grads(lambda t: (histogram_normalize(t) ** 2.0).sum(), x)
        out = histogram_normalize(x).data
        np.testing.assert_array_equal(out[0], np.full((1, 12, 12), 0.5))
        np.testing.assert_array_equal(grad[0], np.zeros((1, 12, 12)))
        assert_close(out[1], oracle_histogram_normalize(x[1]))
        assert np.abs(grad[1]).sum() > 0


class TestMSE:
    def test_identical_is_zero(self):
        img = np.random.default_rng(73).random((5, 5))
        assert mse(img, img) == 0.0

    def test_known_value(self):
        assert mse(np.zeros(4), np.full(4, 0.5)) == pytest.approx(0.25)

    def test_symmetry(self):
        rng = np.random.default_rng(74)
        a, b = rng.random(10), rng.random(10)
        assert mse(a, b) == mse(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse(np.zeros((2, 2)), np.zeros((3, 3)))


class TestGaussianWindow:
    # the window SSIM filters with, as two passes of its 1-D taps
    window = np.outer(SSIM_TAPS, SSIM_TAPS)

    def test_normalized(self):
        assert self.window.sum() == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_peak_center(self):
        w = self.window
        np.testing.assert_allclose(w, w[::-1, ::-1], atol=1e-16)
        assert w[5, 5] == w.max()

    def test_matches_oracle_window(self):
        assert_close(self.window, oracle_gaussian_window(11, 1.5), rel=1e-15)


class TestSSIM:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(75)
        img = rng.random((24, 24))
        assert ssim(img, img).item() == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(76)
        a, b = rng.random((20, 20)), rng.random((20, 20))
        assert ssim(a, b).item() == ssim(b, a).item()

    def test_bounded_by_one(self):
        rng = np.random.default_rng(77)
        for seed in range(5):
            r = np.random.default_rng(seed)
            assert ssim(r.random((16, 16)), r.random((16, 16))).item() <= 1.0

    def test_noise_reduces_score(self):
        rng = np.random.default_rng(78)
        img = rng.random((32, 32))
        noisy = np.clip(img + rng.normal(scale=0.3, size=img.shape), 0, 1)
        assert ssim(img, noisy).item() < ssim(img, img).item()

    def test_monotone_in_noise_level(self):
        rng = np.random.default_rng(79)
        img = rng.random((32, 32))
        noise = rng.standard_normal(img.shape)
        scores = [ssim(img, np.clip(img + s * noise, 0, 1)).item()
                  for s in (0.05, 0.15, 0.45)]
        assert scores[0] > scores[1] > scores[2]

    def test_matches_direct_reference(self):
        # independent direct-loop implementation on a small image
        rng = np.random.default_rng(80)
        a, b = rng.random((14, 14)), rng.random((14, 14))
        win = oracle_gaussian_window(11, 1.5)
        c1, c2 = 0.01 ** 2, 0.03 ** 2
        vals = []
        for i in range(4):
            for j in range(4):
                pa, pb = a[i:i + 11, j:j + 11], b[i:i + 11, j:j + 11]
                mu_a, mu_b = (win * pa).sum(), (win * pb).sum()
                va = (win * pa * pa).sum() - mu_a ** 2
                vb = (win * pb * pb).sum() - mu_b ** 2
                cov = (win * pa * pb).sum() - mu_a * mu_b
                vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2)) /
                            ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)))
        assert ssim(a, b).item() == pytest.approx(np.mean(vals), abs=1e-12)

    def test_image_smaller_than_window(self):
        with pytest.raises(ShapeError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))

    @pytest.mark.parametrize("shape", SIZES)
    def test_matches_oracles(self, shape):
        a, b = image_pair(shape, seed=84)
        value, grads = value_and_grads(ssim, a, b)
        old_value, old_grads = value_and_grads(oracle_diff_ssim, a, b)
        assert_close(value, old_value)
        for new, old in zip(grads, old_grads):
            assert_close(new, old)
        per_frame = np.mean([oracle_ssim(a[i, 0], b[i, 0]) for i in range(shape[0])])
        assert_close(value, per_frame)

    def test_flat_frame_matches_oracles(self):
        a = np.full((1, 1, 14, 14), 0.5)
        b = image_pair((1, 1, 14, 14), seed=85)[1]
        value, grads = value_and_grads(ssim, a, b)
        old_value, old_grads = value_and_grads(oracle_diff_ssim, a, b)
        assert_close(value, old_value)
        assert_close(value, oracle_ssim(a[0, 0], b[0, 0]))
        for new, old in zip(grads, old_grads):
            assert_close(new, old)


class TestScore:
    @pytest.mark.parametrize("shape", SIZES)
    def test_matches_oracles(self, shape):
        rng = np.random.default_rng(86)
        pred = rng.standard_normal(shape)
        gt = rng.random(shape)
        normalized = [oracle_histogram_normalize(pred[i, 0]) for i in range(shape[0])]
        mse_val, ssim_val = score(pred, gt)
        assert_close(mse_val, np.mean([mse(p, g[0]) for p, g in zip(normalized, gt)]))
        assert_close(ssim_val, np.mean([oracle_ssim(p, g[0]) for p, g in zip(normalized, gt)]))

    def test_flat_prediction(self):
        gt = np.random.default_rng(87).random((14, 14))
        mse_val, ssim_val = score(np.full((14, 14), 2.0), gt)
        assert mse_val == mse(np.full((14, 14), 0.5), gt)
        assert_close(ssim_val, oracle_ssim(np.full((14, 14), 0.5), gt))

    def test_ssim_nan_below_the_window(self):
        rng = np.random.default_rng(88)
        mse_val, ssim_val = score(rng.random((10, 16)), rng.random((10, 16)))
        assert np.isfinite(mse_val) and np.isnan(ssim_val)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            score(np.zeros((16, 16)), np.zeros((1, 1, 16, 16)))

    def test_records_no_graph(self):
        pred = Tensor(np.random.default_rng(89).random((1, 1, 16, 16)), requires_grad=True)
        score(pred, np.zeros((1, 1, 16, 16)))
        assert pred.grad is None


class TestReconstructionLossOracle:
    @pytest.mark.parametrize("shape", SIZES[:4] + [(1, 1, 16, 16)])
    def test_value_and_gradient(self, shape):
        rng = np.random.default_rng(90)
        pred = rng.standard_normal(shape)
        gt = rng.random(shape)
        value, (grad,) = value_and_grads(lambda t: reconstruction_loss(t, gt), pred)
        old_value, (old_grad,) = value_and_grads(
            lambda t: oracle_reconstruction_loss(t, Tensor(gt)), pred)
        assert_close(value, old_value)
        assert_close(grad, old_grad)

    def test_flat_prediction(self):
        gt = np.random.default_rng(91).random((1, 1, 14, 14))
        pred = np.full((1, 1, 14, 14), -1.0)
        value, (grad,) = value_and_grads(lambda t: reconstruction_loss(t, gt), pred)
        assert_close(value, oracle_reconstruction_loss(Tensor(pred), Tensor(gt)).item())
        np.testing.assert_array_equal(grad, np.zeros_like(pred))

    def test_batch_uses_per_frame_percentiles(self):
        # batch 2 is the mean of the per-frame losses; the old loss took one
        # percentile pair over both frames
        rng = np.random.default_rng(92)
        pred = rng.standard_normal((2, 1, 16, 16)) * np.array([1.0, 40.0])[:, None, None, None]
        gt = rng.random(pred.shape)
        value, (grad,) = value_and_grads(lambda t: reconstruction_loss(t, gt), pred)
        frames = [value_and_grads(lambda t: oracle_reconstruction_loss(t, Tensor(gt[i:i + 1])),
                                  pred[i:i + 1]) for i in range(2)]
        assert_close(value, np.mean([v for v, _ in frames]))
        assert_close(grad, 0.5 * np.concatenate([g for _, (g,) in frames]))
        joint = oracle_reconstruction_loss(Tensor(pred), Tensor(gt)).item()
        assert abs(value - joint) > 1e-3
