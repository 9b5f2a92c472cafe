import zlib

import numpy as np
import pytest

from evrecon import autodiff as ad
from evrecon.autodiff import Tensor
from evrecon.errors import ContractError, ShapeError


def rand(*shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).standard_normal(shape) * scale


def naive_conv2d(x, w, b=None, stride=1, padding=0):
    """Direct 6-nested-loop reference convolution."""
    n, cin, h, ww = x.shape
    cout, _, k, _ = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (ww + 2 * padding - k) // stride + 1
    out = np.zeros((n, cout, h_out, w_out))
    for ni in range(n):
        for co in range(cout):
            for yo in range(h_out):
                for xo in range(w_out):
                    acc = 0.0
                    for ci in range(cin):
                        for ky in range(k):
                            for kx in range(k):
                                acc += x[ni, ci, yo * stride + ky, xo * stride + kx] * w[co, ci, ky, kx]
                    out[ni, co, yo, xo] = acc + (b[co] if b is not None else 0.0)
    return out


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(rand(1, 1, 3, 3))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = ad.conv2d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_ones_sum(self):
        out = ad.conv2d(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((1, 1, 3, 3))))
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 9.0

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 2), (2, 2), (2, 1)])
    def test_matches_naive(self, stride, padding):
        x = rand(1, 2, 5, 5, seed=3)
        w = rand(3, 2, 3, 3, seed=4)
        b = rand(3, seed=5)
        out = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, b, stride, padding),
                                   rtol=1e-12, atol=1e-12)

    def test_random_shapes_vs_naive(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n, cin, cout = rng.integers(1, 3), rng.integers(1, 5), rng.integers(1, 5)
            h = int(rng.integers(3, 9))
            w = int(rng.integers(3, 9))
            k = int(rng.integers(1, min(h, w) + 1))
            x = rng.standard_normal((n, cin, h, w))
            wt = rng.standard_normal((cout, cin, k, k))
            out = ad.conv2d(Tensor(x), Tensor(wt))
            np.testing.assert_allclose(out.data, naive_conv2d(x, wt), rtol=1e-11, atol=1e-11)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            ad.conv2d(Tensor(rand(1, 2, 4, 4)), Tensor(rand(1, 3, 3, 3)))


def max_rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestUpsample2xConv2d:
    """The phase-folded decoder conv against its oracle: upsample_nearest2x
    followed by conv2d with padding k//2."""

    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_matches_upsample_then_conv(self, k, with_bias):
        rng = np.random.default_rng(100 + k)
        x = rng.standard_normal((2, 3, 4, 6))
        w = rng.standard_normal((5, 3, k, k))
        b = rng.standard_normal(5) if with_bias else None
        g = rng.standard_normal((2, 5, 8, 12))

        def run(op):
            xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            bt = None if b is None else Tensor(b, requires_grad=True)
            out = op(xt, wt, bt)
            (out * g).sum().backward()
            return [out.data, xt.grad, wt.grad] + ([] if bt is None else [bt.grad])

        fused = run(ad.upsample2x_conv2d)
        oracle = run(lambda xt, wt, bt: ad.conv2d(ad.upsample_nearest2x(xt), wt, bt,
                                                  padding=k // 2))
        assert fused[0].shape == (2, 5, 8, 12)
        for got, want in zip(fused, oracle):
            assert max_rel_err(got, want) < 1e-12

    def test_even_kernel_raises(self):
        with pytest.raises(ShapeError):
            ad.upsample2x_conv2d(Tensor(rand(1, 2, 3, 3)), Tensor(rand(1, 2, 4, 4)))

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            ad.upsample2x_conv2d(Tensor(rand(1, 2, 3, 3)), Tensor(rand(1, 3, 5, 5)))


class TestLinear:
    def test_identity(self):
        x = rand(2, 4, seed=1)
        out = ad.linear(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_weight_bias_broadcast(self):
        b = rand(3, seed=2)
        out = ad.linear(Tensor(rand(2, 4)), Tensor(np.zeros((3, 4))), Tensor(b))
        np.testing.assert_array_equal(out.data, np.tile(b, (2, 1)))

    def test_matches_matmul(self):
        x, w, b = rand(3, 5, seed=6), rand(2, 5, seed=7), rand(2, seed=8)
        out = ad.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b, rtol=1e-14)


class TestPoolingAndPointwise:
    def test_avg_pool_constant(self):
        x = np.full((1, 2, 4, 4), 3.5)
        np.testing.assert_array_equal(ad.global_avg_pool(Tensor(x)).data,
                                      np.full((1, 2), 3.5))

    def test_sigmoid_zero(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_max_pool(self):
        x = rand(2, 3, 4, 5, seed=9)
        out = ad.global_max_pool(Tensor(x))
        np.testing.assert_array_equal(out.data, x.max(axis=(2, 3)))

    def test_max_pool_tie_gradient_first_index(self):
        x = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        ad.global_max_pool(x).sum().backward()
        expect = np.zeros((1, 1, 2, 2))
        expect[0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(x.grad, expect)

    def test_upsample_values(self):
        out = ad.upsample_nearest2x(Tensor(np.full((1, 1, 1, 1), 3.0)))
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 3.0))

    def test_upsample_gradient(self):
        x = Tensor(rand(1, 1, 2, 2), requires_grad=True)
        ad.upsample_nearest2x(x).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((1, 1, 2, 2), 4.0))


class TestBatchNorm:
    def test_standardized_batch_near_identity(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((8, 3, 6, 6))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        out = ad.batch_norm2d(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                              np.zeros(3), np.ones(3), training=True)
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_eval_uses_running_stats(self):
        x = rand(2, 2, 3, 3, seed=14)
        rm, rv = np.array([1.0, -1.0]), np.array([4.0, 0.25])
        out = ad.batch_norm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                              rm, rv, training=False, eps=0.0)
        expect = (x - rm[None, :, None, None]) / np.sqrt(rv)[None, :, None, None]
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)

    def test_running_stats_updated(self):
        x = rand(4, 2, 5, 5, seed=15) * 2 + 1
        rm, rv = np.zeros(2), np.ones(2)
        ad.batch_norm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                        rm, rv, training=True, momentum=1.0)
        np.testing.assert_allclose(rm, x.mean(axis=(0, 2, 3)), rtol=1e-12)


class TestBackward:
    def test_linear_grad(self):
        x = rand(4, seed=16)
        w = Tensor(rand(4, seed=17), requires_grad=True)
        (w * x).sum().backward()
        np.testing.assert_array_equal(w.grad, x)

    def test_sigmoid_grad_at_zero(self):
        w = Tensor(0.0, requires_grad=True)
        ad.sigmoid(w).backward()
        assert w.grad == pytest.approx(0.25, abs=1e-15)

    def test_non_scalar_loss_raises(self):
        with pytest.raises(ContractError):
            t = Tensor(rand(3), requires_grad=True)
            (t * 2.0).backward()

    def test_accumulation_double_use(self):
        def f(t):
            return (t * t).sum()

        x = Tensor(rand(3, seed=18), requires_grad=True)
        f(x).backward()
        g1 = x.grad.copy()
        x.grad = None
        (f(x) + f(x)).backward()
        np.testing.assert_allclose(x.grad, 2 * g1, rtol=1e-15)

    def test_shared_parameter_across_steps(self):
        # gradient of a parameter used at 3 steps = sum of per-step grads
        w = Tensor(np.array(0.8), requires_grad=True)
        xs = [0.3, -1.2, 0.7]
        total = None
        for xv in xs:
            term = ad.sigmoid(w * xv)
            total = term if total is None else total + term
        total.backward()
        per_step = []
        for xv in xs:
            wi = Tensor(np.array(0.8), requires_grad=True)
            ad.sigmoid(wi * xv).backward()
            per_step.append(float(wi.grad))
        assert float(w.grad) == pytest.approx(sum(per_step), rel=1e-12)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(21)
            x = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
            w = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
            ad.sigmoid(ad.conv2d(x, w, padding=1)).sum().backward()
            return x.grad.copy(), w.grad.copy()

        gx1, gw1 = run()
        gx2, gw2 = run()
        assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


class TestSeparableFilter:
    @pytest.mark.parametrize("shape,k", [((1, 1, 11, 11), 11), ((2, 1, 14, 20), 11),
                                         ((3, 7), 3), ((2, 3, 5, 4), 1)])
    def test_matches_conv2d(self, shape, k):
        # the conv of the outer-product kernel, its oracle
        rng = np.random.default_rng(k)
        taps = rng.random(k)
        x = rng.standard_normal(shape)
        g = rng.standard_normal(shape[:-2] + (shape[-2] - k + 1, shape[-1] - k + 1))
        t = Tensor(x, requires_grad=True)
        out = ad.separable_filter(t, taps)
        (out * g).sum().backward()
        x4 = Tensor(x.reshape((-1, 1) + shape[-2:]), requires_grad=True)
        ref = ad.conv2d(x4, Tensor(np.outer(taps, taps)[None, None]))
        (ref * g.reshape(ref.shape)).sum().backward()
        np.testing.assert_allclose(out.data, ref.data.reshape(out.shape), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(t.grad, x4.grad.reshape(shape), rtol=1e-12, atol=1e-14)

    def test_input_smaller_than_kernel(self):
        with pytest.raises(ShapeError):
            ad.separable_filter(Tensor(np.ones((4, 2))), np.ones(3))


class TestFiniteDifference:
    def test_sum_of_squares(self):
        err = ad.finite_difference_check(lambda t: (t * t).sum(), Tensor(rand(5, seed=22)))
        assert err < 1e-6

    def test_constant_function(self):
        x = Tensor(rand(3, seed=23), requires_grad=True)
        (x * 0.0).sum().backward()
        np.testing.assert_array_equal(x.grad, np.zeros(3))
        err = ad.finite_difference_check(lambda t: (t * 0.0).sum(), Tensor(rand(3)))
        assert err < 1e-8

    def test_conv_sigmoid_linear_stack(self):
        rng = np.random.default_rng(24)
        w = Tensor(rng.standard_normal((2, 2, 3, 3)) * 0.4)
        lw = Tensor(rng.standard_normal((1, 2)) * 0.5)

        def f(t):
            h = ad.sigmoid(ad.conv2d(t, w, padding=1))
            return ad.linear(ad.global_avg_pool(h), lw).sum()

        err = ad.finite_difference_check(f, Tensor(rng.standard_normal((1, 2, 5, 5))))
        assert err < 1e-4

    def test_upsample2x_conv2d(self):
        rng = np.random.default_rng(26)
        x = Tensor(rng.standard_normal((1, 2, 3, 4)))
        w = Tensor(rng.standard_normal((2, 2, 5, 5)) * 0.3)
        assert ad.finite_difference_check(
            lambda t: (ad.upsample2x_conv2d(t, w) ** 2.0).sum(), x) < 1e-4
        assert ad.finite_difference_check(
            lambda t: (ad.upsample2x_conv2d(x, t) ** 2.0).sum(), w) < 1e-4

    def test_separable_filter(self):
        rng = np.random.default_rng(27)
        taps = rng.random(3)
        assert ad.finite_difference_check(
            lambda t: (ad.separable_filter(t, taps) ** 2.0).sum(),
            Tensor(rng.standard_normal((2, 1, 5, 6)))) < 1e-4

    # inputs stay clear of each case's kinks by more than twice the FD step
    KINKS = {"abs_smooth": (0.0,), "maximum": (0.1,), "clip": (-0.45, 0.45)}

    @pytest.mark.parametrize("name,f,shape", [
        ("mul", lambda t: (t * t * 0.5).sum(), (4,)),
        ("div", lambda t: (1.0 / (t * t + 2.0)).sum(), (4,)),
        ("abs_smooth", lambda t: (t.abs()).sum(), (4,)),
        ("maximum", lambda t: ad.maximum(t, 0.1).sum(), (4,)),
        ("concat", lambda t: ad.concat([t, t * 2.0], axis=0).sum(), (3,)),
        ("roll", lambda t: (ad.roll(t, 1, axis=0) * t).sum(), (5,)),
        ("getitem", lambda t: (t[1:, :2] ** 2.0).sum(), (3, 3)),
        ("reshape", lambda t: (t.reshape(6) ** 2.0).sum(), (2, 3)),
        ("clip", lambda t: ad.clip(t * 2.0, -0.9, 0.9).sum(), (4,)),
    ])
    def test_primitive_fd(self, name, f, shape):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        x = rng.standard_normal(shape) * 0.3 + 0.05
        for kink in self.KINKS.get(name, ()):
            assert np.abs(x - kink).min() > 2e-3, f"input within 2e-3 of the kink at {kink}"
        assert ad.finite_difference_check(f, Tensor(x)) < 1e-4


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference one-step Adam on raw arrays (the oracle for `ad.Adam`).

    `state` is a dict with keys m, v (lists of arrays) and t; mutated in
    place.
    """
    state["t"] += 1
    t = state["t"]
    for i, (p, g) in enumerate(zip(params, grads)):
        state["m"][i] = beta1 * state["m"][i] + (1.0 - beta1) * g
        state["v"][i] = beta2 * state["v"][i] + (1.0 - beta2) * g * g
        m_hat = state["m"][i] / (1.0 - beta1 ** t)
        v_hat = state["v"][i] / (1.0 - beta2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestAdam:
    def test_first_step_is_sign_like(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.array([10.0, -5.0])
        opt = ad.Adam([p], lr=0.1)
        opt.step()
        np.testing.assert_allclose(p.data, [0.9, -1.9], atol=1e-6)

    def test_zero_grad_keeps_params(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = ad.Adam([p], lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_quadratic_convergence(self):
        p = Tensor(np.array(1.0), requires_grad=True)
        opt = ad.Adam([p], lr=0.05)
        for _ in range(100):
            opt.zero_grad()
            (p * p).backward()
            opt.step()
        assert abs(float(p.data)) < 0.1

    def test_functional_adam_matches_class(self):
        rng = np.random.default_rng(25)
        data = rng.standard_normal(4)
        grads = [rng.standard_normal(4) for _ in range(5)]
        p1 = Tensor(data.copy(), requires_grad=True)
        opt = ad.Adam([p1], lr=0.01)
        p2 = data.copy()
        state = {"m": [np.zeros(4)], "v": [np.zeros(4)], "t": 0}
        for g in grads:
            p1.grad = g.copy()
            opt.step()
            adam_step([p2], [g.copy()], state, lr=0.01)
        np.testing.assert_array_equal(p1.data, p2)


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = Tensor(rand(3), requires_grad=True)
        with ad.no_grad():
            y = (x * 2.0).sum()
        assert not y.requires_grad

    def test_detach_cuts_graph(self):
        x = Tensor(rand(3), requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad
