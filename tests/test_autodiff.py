import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from evrecon import autodiff as ad
from evrecon.autodiff import Tensor
from evrecon.errors import ContractError, ShapeError
from evrecon.model import NetworkSpec, stage_table
from evrecon.neurons import NeuronConfig, _charge_fire_reset, if_step, lif_step, mp_step


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


def _im2col(x, k, stride, padding):
    n, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = h + 2 * padding, w + 2 * padding
    h_out = (hp - k) // stride + 1
    w_out = (wp - k) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride, :, :]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n, h_out * w_out, c * k * k)
    return np.ascontiguousarray(cols), h_out, w_out


def _col2im(gcols, x_shape, k, stride, padding, h_out, w_out):
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    gx = np.zeros((n, c, hp, wp))
    g6 = gcols.reshape(n, h_out, w_out, c, k, k).transpose(0, 3, 1, 2, 4, 5)
    for i in range(k):
        for j in range(k):
            gx[:, :, i:i + stride * h_out:stride,
               j:j + stride * w_out:stride] += g6[..., i, j]
    if padding:
        gx = gx[:, :, padding:hp - padding, padding:wp - padding]
    return gx


def oracle_conv(x, w, stride, padding, need_x=True, need_w=True):
    """The im2col + GEMM kernel that `ad._conv` replaced: a row-major column
    copy of the input, kept alive for the backward, and an einsum weight
    gradient. It always returns both gradients."""
    n = x.shape[0]
    c_out, c_in, k, _ = w.shape
    cols, h_out, w_out = _im2col(x, k, stride, padding)
    wmat = w.reshape(c_out, c_in * k * k)
    out = (cols @ wmat.T).transpose(0, 2, 1).reshape(n, c_out, h_out, w_out)

    def bw(g):
        gflat = g.reshape(n, c_out, h_out * w_out).transpose(0, 2, 1)
        gw = np.einsum("nlo,nlc->oc", gflat, cols).reshape(w.shape)
        gcols = gflat @ wmat
        gx = _col2im(gcols, x.shape, k, stride, padding, h_out, w_out)
        return gx, gw

    return out, bw


def _stage_conv_cases():
    """(op, x shape, weight shape, stride) for every conv stage of the toy,
    full-scale EVSNN and full-scale PA-EVSNN+AMP networks, deduplicated."""
    specs = [NetworkSpec(height=32, width=32, n_channels=8, n_encoders=2, n_residual=1),
             NetworkSpec(height=180, width=240),
             NetworkSpec(height=180, width=240, potential_assisted=True, amp_enabled=True)]
    cases = {}
    for spec in specs:
        for g in stage_table(spec):
            scale = 2 if g.stride == 2 else (0.5 if g.role == "up" else 1)
            x_shape = (1, g.cin, int(g.h_out * scale), int(g.w_out * scale))
            op = "upsample2x_conv2d" if g.role == "up" else "conv2d"
            case = (op, x_shape, (g.cout, g.cin, g.kernel, g.kernel), g.stride)
            cases.setdefault(case, g.name)
    return [pytest.param(*case, id=f"{name}-{case[1][2]}x{case[1][3]}")
            for case, name in cases.items()]


def _retained_bytes(fn, seen=None):
    """Bytes of the distinct arrays a closure (and the closures it holds) keeps."""
    seen = {} if seen is None else seen
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            seen[id(value)] = value.nbytes
        elif callable(value) and getattr(value, "__closure__", None) and id(value) not in seen:
            seen[id(value)] = 0
            _retained_bytes(value, seen)
    return sum(seen.values())


class TestConvKernel:
    """`ad._conv`'s channel-first and output-shift forms against the
    im2col oracle, through the public ops."""

    @staticmethod
    def run(monkeypatch, kernel, op, x, w, b, g, **kw):
        monkeypatch.setattr(ad, "_conv", kernel)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = getattr(ad, op)(xt, wt, bt, **kw)
        (out * g).sum().backward()
        return out.data, xt.grad, wt.grad, bt.grad

    def check(self, monkeypatch, op, x_shape, w_shape, seed=0, **kw):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        b = rng.standard_normal(w_shape[0])
        with ad.no_grad():
            out_shape = getattr(ad, op)(Tensor(x), Tensor(w), **kw).shape
        g = rng.standard_normal(out_shape)
        kernel = ad._conv
        got = self.run(monkeypatch, kernel, op, x, w, b, g, **kw)
        want = self.run(monkeypatch, oracle_conv, op, x, w, b, g, **kw)
        for name, a, e in zip(("out", "x.grad", "w.grad", "b.grad"), got, want):
            assert a.shape == e.shape, name
            assert max_rel_err(a, e) < 1e-10, name

    @pytest.mark.parametrize("op,x_shape,w_shape,stride", _stage_conv_cases())
    def test_stage_shapes_match_oracle(self, monkeypatch, op, x_shape, w_shape, stride):
        kw = {} if op == "upsample2x_conv2d" else {"stride": stride, "padding": w_shape[2] // 2}
        self.check(monkeypatch, op, x_shape, w_shape, **kw)

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", [
        ((1, 3, 7, 9), (4, 3, 3, 3), 2, 1),     # odd input under stride 2
        ((1, 3, 9, 7), (4, 3, 5, 5), 2, 0),     # odd input, stride 2, no padding
        ((1, 3, 6, 5), (4, 3, 3, 3), 1, 0),     # padding 0
        ((1, 5, 4, 6), (3, 5, 1, 1), 1, 0),     # k = 1, C_out < C_in
        ((2, 4, 6, 5), (6, 4, 3, 3), 1, 1),     # batch 2
        ((2, 6, 5, 7), (2, 6, 3, 3), 1, 1),     # batch 2, C_out < C_in
        ((1, 8, 6, 6), (1, 8, 5, 5), 1, 0),     # C_out < C_in, padding 0
        ((1, 4, 5, 5), (2, 4, 3, 3), 2, 1),     # C_out < C_in under stride 2
    ])
    def test_edge_cases_match_oracle(self, monkeypatch, x_shape, w_shape, stride, padding):
        self.check(monkeypatch, "conv2d", x_shape, w_shape, stride=stride, padding=padding)

    @pytest.mark.parametrize("w_shape,stride", [((4, 3, 3, 3), 2), ((2, 6, 3, 3), 1)])
    def test_backward_keeps_only_the_padded_input(self, w_shape, stride):
        x = rand(1, w_shape[1], 9, 8)
        w = rand(*w_shape, seed=1)
        _, bw = ad._conv(x, w, stride, 1, True, True)
        padded = x.shape[0] * x.shape[1] * 12 * 10 * 8  # (H+2+1) x (W+2) at most
        assert _retained_bytes(bw) <= padded + 2 * w.nbytes

    def test_unneeded_gradients_are_skipped(self):
        x, w = rand(1, 2, 5, 5), rand(3, 2, 3, 3, seed=1)
        out, bw = ad._conv(x, w, 2, 1, False, True)
        gx, gw = bw(np.ones(out.shape))
        assert gx is None and gw.shape == w.shape
        gx, gw = ad._conv(x, w, 1, 1, True, False)[1](np.ones((1, 3, 5, 5)))
        assert gx.shape == x.shape and gw is None

    @pytest.mark.parametrize("op", ["conv2d", "upsample2x_conv2d"])
    def test_bias_is_part_of_the_op(self, op):
        x = Tensor(rand(1, 2, 4, 4), requires_grad=True)
        w, b = Tensor(rand(3, 2, 3, 3, seed=1)), Tensor(rand(3, seed=2))
        kw = {"padding": 1} if op == "conv2d" else {}
        out = getattr(ad, op)(x, w, b, **kw)
        assert out._parents == (x, w, b)
        plain = getattr(ad, op)(x, w, **kw)
        np.testing.assert_array_equal(out.data, plain.data + b.data.reshape(1, 3, 1, 1))


def slice_gather_conv(x, w, stride, padding, need_x=True, need_w=True):
    """The channel-first kernel before row tiles and the strided-view
    gather: k*k strided slice copies fill the whole column block, allocated
    fresh in the forward and again in the backward. Channel-first form
    only, so not for stride 1 with C_out < C_in."""
    n, c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    assert not (stride == 1 and c_out < c_in), "the output-shift form"
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (wd + 2 * padding - k) // stride + 1
    taps = [(i, j) for i in range(k) for j in range(k)]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    wmat = w.reshape(c_out, c_in * k * k)

    def window(i, j):
        return (slice(None), slice(None), slice(i, i + stride * h_out, stride),
                slice(j, j + stride * w_out, stride))

    def gather():
        cols = np.empty((n, c_in, k, k, h_out, w_out))
        for i, j in taps:
            cols[:, :, i, j] = xp[window(i, j)]
        return cols.reshape(n, c_in * k * k, h_out * w_out)

    out = (wmat @ gather()).reshape(n, c_out, h_out, w_out)

    def bw(g):
        g = g.reshape(n, c_out, h_out * w_out)
        gx = gw = None
        if need_w:
            gw = (g @ gather().transpose(0, 2, 1)).sum(0).reshape(w.shape)
        if need_x:
            gcols = (wmat.T @ g).reshape(n, c_in, k, k, h_out, w_out)
            gxp = np.zeros(xp.shape)
            for i, j in taps:
                gxp[window(i, j)] += gcols[:, :, i, j]
            gx = gxp[:, :, padding:padding + h, padding:padding + wd]
        return gx, gw

    return out, bw


class TestColumnWorkspace:
    """`ad._conv`'s column tiles, each filled by one strided-view copy,
    against the slice gather of whole blocks that they replaced: every
    output and gradient bitwise equal when the block is one tile."""

    @staticmethod
    def run_both(monkeypatch, op, x, w, b, **kw):
        g = np.random.default_rng(9).standard_normal(
            getattr(ad, op)(Tensor(x), Tensor(w), **kw).shape)
        kernel = ad._conv
        got = TestConvKernel.run(monkeypatch, kernel, op, x, w, b, g, **kw)
        want = TestConvKernel.run(monkeypatch, slice_gather_conv, op, x, w, b, g, **kw)
        for name, a, e in zip(("out", "x.grad", "w.grad", "b.grad"), got, want):
            np.testing.assert_array_equal(a, e, err_msg=name)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_matches_slice_gather(self, monkeypatch, stride, k):
        rng = np.random.default_rng(40 + k)
        x, w, b = (rng.standard_normal(s) for s in ((2, 3, 9, 8), (5, 3, k, k), 5))
        self.run_both(monkeypatch, "conv2d", x, w, b, stride=stride, padding=k // 2)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_upsample2x_conv2d_matches_slice_gather(self, monkeypatch, k):
        rng = np.random.default_rng(50 + k)
        x, w, b = (rng.standard_normal(s) for s in ((2, 6, 5, 4), (3, 6, k, k), 3))
        self.run_both(monkeypatch, "upsample2x_conv2d", x, w, b)

    def test_output_survives_later_convs(self):
        out = ad.conv2d(Tensor(rand(1, 3, 8, 8)), Tensor(rand(4, 3, 3, 3, seed=1)), padding=1)
        want = out.data.copy()
        ad.conv2d(Tensor(rand(1, 6, 16, 16, seed=2)), Tensor(rand(8, 6, 5, 5, seed=3)),
                  padding=2)  # a larger column block
        ad.conv2d(Tensor(rand(1, 2, 4, 4, seed=4)), Tensor(rand(2, 2, 3, 3, seed=5)),
                  padding=1)  # a smaller one
        np.testing.assert_array_equal(out.data, want)

    def test_training_order_matches_fresh_blocks(self, monkeypatch):
        # forward through three convs, then their backwards in reverse, as a
        # training step does; column blocks of 18000, 3240 and 4320 elements
        rng = np.random.default_rng(60)
        x = rng.standard_normal((2, 3, 12, 10))
        ws = [rng.standard_normal(s) for s in ((6, 3, 5, 5), (8, 6, 3, 3), (3, 8, 3, 3))]

        def run(kernel):
            monkeypatch.setattr(ad, "_conv", kernel)
            xt = Tensor(x, requires_grad=True)
            wts = [Tensor(w, requires_grad=True) for w in ws]
            h = ad.sigmoid(ad.conv2d(xt, wts[0], padding=2))
            h = ad.sigmoid(ad.conv2d(h, wts[1], stride=2, padding=1))
            h = ad.upsample2x_conv2d(h, wts[2])
            (h * h).sum().backward()
            return [h.data, xt.grad] + [w.grad for w in wts]

        kernel = ad._conv
        got, want = run(kernel), run(slice_gather_conv)
        for a, e in zip(got, want):
            np.testing.assert_array_equal(a, e)


TRACE_SLACK = 16384  # bytes a traced conv holds besides arrays: views, lists, trace records


def tracing_conv(excess):
    """`ad._conv` that appends to `excess` each call's traced forward peak
    above its padded input and its output, in bytes; tracemalloc must be
    tracing. Every other array of a channel-first forward is a column tile;
    the output-shift form's are its partial outputs."""
    conv = ad._conv

    def traced(x, w, stride, padding, need_x, need_w):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out, bw = conv(x, w, stride, padding, need_x, need_w)
        n, c, h, wd = x.shape
        padded = 8 * n * c * (h + 2 * padding) * (wd + 2 * padding) if padding else 0
        excess.append(tracemalloc.get_traced_memory()[1] - start - padded - out.nbytes)
        return out, bw

    return traced


def assert_one_tile(excess, tile):
    """A traced forward held one column tile of `tile` elements."""
    assert 8 * tile <= excess <= 8 * tile + TRACE_SLACK, (excess, 8 * tile)


class TestConvTiles:
    """`ad._conv` with `_TILE` shrunk so that each conv runs many row tiles,
    against the whole-block slice gather: outputs and gradients agree to
    roundoff (splitting a GEMM or reordering the scatter's adds may move
    the last bits), and the traced forward holds one tile above its padded
    input and output, of at most `_TILE` elements unless one output row
    alone is larger. The bitwise tests above cover the one-tile case every
    toy network takes."""

    @staticmethod
    def tiles(monkeypatch, rows, row_size):
        """Shrink the tile to `rows` output rows of `row_size` elements."""
        monkeypatch.setattr(ad, "_TILE", rows * row_size + row_size // 2)

    @staticmethod
    def run_both(monkeypatch, op, x, w, b, **kw):
        """Compare the kernels through `op`; returns the tiled forward's
        traced peak above its padded input and output."""
        g = np.random.default_rng(9).standard_normal(
            getattr(ad, op)(Tensor(x), Tensor(w), **kw).shape)
        excess = []
        tracemalloc.start()
        try:
            got = TestConvKernel.run(monkeypatch, tracing_conv(excess), op, x, w, b, g, **kw)
        finally:
            tracemalloc.stop()
        want = TestConvKernel.run(monkeypatch, slice_gather_conv, op, x, w, b, g, **kw)
        for name, a, e in zip(("out", "x.grad", "w.grad", "b.grad"), got, want):
            np.testing.assert_allclose(a, e, rtol=1e-12, atol=1e-12, err_msg=name)
        return max(excess)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_matches_whole_block(self, monkeypatch, stride, k):
        rng = np.random.default_rng(70 + k)
        x, w, b = (rng.standard_normal(s) for s in ((2, 16, 13, 96), (16, 16, k, k), 16))
        h_out, w_out = (13 - 1) // stride + 1, (96 - 1) // stride + 1  # padding k // 2
        self.tiles(monkeypatch, 3, 16 * k * k * w_out)
        assert h_out % 3 != 0  # a short last tile
        excess = self.run_both(monkeypatch, "conv2d", x, w, b, stride=stride, padding=k // 2)
        assert_one_tile(excess, 3 * 16 * k * k * w_out)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_upsample2x_conv2d_matches_whole_block(self, monkeypatch, k):
        rng = np.random.default_rng(80 + k)
        x, w, b = (rng.standard_normal(s) for s in ((2, 16, 7, 40), (4, 16, k, k), 4))
        kp = 2 * ((k // 2 + 1) // 2) + 1  # the phase kernel's side
        self.tiles(monkeypatch, 2, 16 * kp * kp * 40)
        assert_one_tile(self.run_both(monkeypatch, "upsample2x_conv2d", x, w, b),
                        2 * 16 * kp * kp * 40)

    def test_a_row_larger_than_the_tile_is_one_tile(self, monkeypatch):
        rng = np.random.default_rng(90)
        x, w, b = (rng.standard_normal(s) for s in ((2, 16, 5, 40), (16, 16, 3, 3), 16))
        row = 16 * 9 * 40
        monkeypatch.setattr(ad, "_TILE", row - 1)
        assert_one_tile(self.run_both(monkeypatch, "conv2d", x, w, b, padding=1), row)

    def test_finite_difference_through_tiles(self, monkeypatch):
        rng = np.random.default_rng(91)
        x = Tensor(rng.standard_normal((2, 2, 5, 4)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.4)
        self.tiles(monkeypatch, 2, 2 * 9 * 4)  # tiles of 2, 2 and 1 rows per batch element
        excess = []
        monkeypatch.setattr(ad, "_conv", tracing_conv(excess))
        tracemalloc.start()
        try:
            assert ad.finite_difference_check(
                lambda t: (ad.conv2d(t, w, padding=1) ** 2.0).sum(), x) < 1e-4
            assert ad.finite_difference_check(
                lambda t: (ad.conv2d(x, t, padding=1) ** 2.0).sum(), w) < 1e-4
        finally:
            tracemalloc.stop()
        assert_one_tile(max(excess), 2 * 2 * 9 * 4)


def unblocked_depthwise_conv3x3(x, w):
    """The depthwise forward before channel blocking: each of the nine
    taps runs over every channel at once."""
    n, c, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((n, c, h, wd))
    for i in range(3):
        for j in range(3):
            out += w[:, i, j][None, :, None, None] * xp[:, :, i:i + h, j:j + wd]
    return out


class TestDepthwiseConv3x3:
    def test_bias_matches_a_separate_add(self):
        # the oracle is the old composition: the op without bias, then a
        # reshape and an add node
        rng = np.random.default_rng(30)
        x, w, b = rng.standard_normal((2, 3, 5, 6)), rng.standard_normal((3, 3, 3)), \
            rng.standard_normal(3)
        g = rng.standard_normal((2, 3, 5, 6))

        def run(op):
            xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
            out = op(xt, wt, bt)
            n_parents = len(out._parents)  # read before the backward consumes them
            (out * g).sum().backward()
            return out, n_parents, [xt.grad, wt.grad, bt.grad]

        out, n_parents, grads = run(ad.depthwise_conv3x3)
        want, _, want_grads = run(lambda xt, wt, bt: ad.add(ad.depthwise_conv3x3(xt, wt),
                                                            ad.reshape(bt, (1, 3, 1, 1))))
        assert n_parents == 3  # one tape node
        np.testing.assert_array_equal(out.data, want.data)
        for got, ref in zip(grads, want_grads):
            assert max_rel_err(got, ref) < 1e-12

    @pytest.mark.parametrize("shape", [
        pytest.param((1, 3, 190, 180), id="plane-above-a-group"),    # one channel per group
        pytest.param((2, 11, 64, 64), id="short-last-group"),        # groups of 4 channels
        pytest.param((1, 5, 7, 9), id="one-group"),
    ])
    def test_channel_groups_match_unblocked_loop(self, shape):
        x, w = rand(*shape, seed=31), rand(shape[1], 3, 3, seed=32)
        got = ad.depthwise_conv3x3(Tensor(x), Tensor(w)).data
        np.testing.assert_array_equal(got, unblocked_depthwise_conv3x3(x, w))

    def test_bias_shape_error(self):
        with pytest.raises(ShapeError):
            ad.depthwise_conv3x3(Tensor(rand(1, 2, 3, 3)), Tensor(rand(2, 3, 3)),
                                 Tensor(rand(3)))


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


class TestExactDivision:
    """Division and mean divide: multiplying by a rounded inverse is not exact."""

    def test_x_over_x_is_one(self):
        x = Tensor(np.random.default_rng(34).standard_normal(10000))
        assert np.count_nonzero((x / x).data != 1.0) == 0

    def test_mean_of_ones_is_one(self):
        assert [n for n in range(1, 5000) if Tensor(np.ones(n)).mean().item() != 1.0] == []


def composed_batch_norm2d(x, gamma, beta, running_mean, running_var, training):
    """The composition of elementwise ops that `ad.batch_norm2d` replaced."""
    x = ad.as_tensor(x)
    n, c, h, w = x.shape
    gshape = (1, c, 1, 1)
    if training:
        mu = ad.tmean(x, axis=(0, 2, 3), keepdims=True)
        var = ad.tmean(ad.pow(ad.sub(x, mu), 2.0), axis=(0, 2, 3), keepdims=True)
        cnt = n * h * w
        corr = cnt / (cnt - 1) if cnt > 1 else 1.0
        running_mean *= 1.0 - ad.BN_MOMENTUM
        running_mean += ad.BN_MOMENTUM * mu.data.ravel()
        running_var *= 1.0 - ad.BN_MOMENTUM
        running_var += ad.BN_MOMENTUM * corr * var.data.ravel()
        xhat = ad.mul(ad.sub(x, mu), ad.pow(ad.add(var, ad.BN_EPS), -0.5))
    else:
        mu = running_mean.reshape(gshape)
        inv = 1.0 / np.sqrt(running_var.reshape(gshape) + ad.BN_EPS)
        xhat = ad.mul(ad.sub(x, mu), inv)
    return ad.add(ad.mul(xhat, ad.reshape(gamma, gshape)), ad.reshape(beta, gshape))


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
                              rm, rv, training=False)
        expect = (x - rm[None, :, None, None]) / np.sqrt(rv + ad.BN_EPS)[None, :, None, None]
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)

    def test_running_stats_updated(self):
        x = rand(4, 2, 5, 5, seed=15) * 2 + 1
        rm, rv = np.zeros(2), np.ones(2)
        ad.batch_norm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                        rm, rv, training=True)
        m, cnt = ad.BN_MOMENTUM, 4 * 5 * 5
        np.testing.assert_allclose(rm, m * x.mean(axis=(0, 2, 3)), rtol=1e-12)
        np.testing.assert_allclose(rv, 1 - m + m * x.var(axis=(0, 2, 3)) * cnt / (cnt - 1),
                                   rtol=1e-12)


    @staticmethod
    def case(seed, shape=(3, 4, 5, 6)):
        """x, gamma, beta and the running mean and variance."""
        rng = np.random.default_rng(seed)
        c = shape[1]
        return (rng.standard_normal(shape) * 2.0 + 0.5, rng.uniform(0.5, 1.5, c),
                rng.standard_normal(c), rng.standard_normal(c), rng.uniform(0.5, 2.0, c))

    @pytest.mark.parametrize("training", [True, False])
    def test_matches_oracle(self, training):
        # outputs and running buffers bitwise, with and without a tape;
        # the gradients of x, gamma and beta within 1e-12
        x, gamma, beta, rm, rv = self.case(70)
        g = np.random.default_rng(71).standard_normal(x.shape)

        def run(op, grad):
            leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
            stats = [rm.copy(), rv.copy()]
            if not grad:
                with ad.no_grad():
                    return op(*leaves, *stats, training).data, stats, []
            out = op(*leaves, *stats, training)
            (out * g).sum().backward()
            return out.data, stats, [t.grad for t in leaves]

        for grad in (False, True):
            out, stats, grads = run(ad.batch_norm2d, grad)
            out_ref, stats_ref, grads_ref = run(composed_batch_norm2d, grad)
            np.testing.assert_array_equal(out, out_ref)
            for got, want in zip(stats, stats_ref):
                np.testing.assert_array_equal(got, want)
            assert len(grads) == (3 if grad else 0)
            for got, want in zip(grads, grads_ref):
                assert max_rel_err(got, want) < 1e-12

    @pytest.mark.parametrize("training", [True, False])
    def test_finite_difference(self, training):
        x, gamma, beta, rm, rv = self.case(72, shape=(2, 3, 3, 4))
        w = np.random.default_rng(73).standard_normal(x.shape)

        def loss(xt, gt, bt):
            out = ad.batch_norm2d(xt, gt, bt, rm.copy(), rv.copy(), training)
            return (out ** 2.0 * w).sum()

        assert ad.finite_difference_check(lambda t: loss(t, Tensor(gamma), Tensor(beta)), x) < 1e-5
        assert ad.finite_difference_check(lambda t: loss(Tensor(x), t, Tensor(beta)), gamma) < 1e-5
        assert ad.finite_difference_check(lambda t: loss(Tensor(x), Tensor(gamma), t), beta) < 1e-5

    @pytest.mark.parametrize("training", [True, False])
    def test_keeps_xhat_and_inverse_std(self, training):
        x, gamma, beta, rm, rv = self.case(74)
        out = ad.batch_norm2d(Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True),
                              Tensor(beta, requires_grad=True), rm, rv, training)
        # x̂, then the per-channel inverse std and the gamma it scales
        assert _retained_bytes(out._bw) == x.nbytes + 2 * gamma.nbytes

    @pytest.mark.parametrize("training", [True, False])
    def test_writes_into_no_input(self, training):
        x, gamma, beta, rm, rv = self.case(75)
        leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta)]
        with ad.no_grad():
            ad.batch_norm2d(*leaves, rm, rv, training)
        out = ad.batch_norm2d(*leaves, rm, rv, training)
        g = np.random.default_rng(76).standard_normal(x.shape)
        g_in = g.copy()
        out._bw(g_in)
        np.testing.assert_array_equal(g_in, g)
        for leaf, a in zip(leaves, (x, gamma, beta)):
            np.testing.assert_array_equal(leaf.data, a)

    @pytest.mark.parametrize("training,temporaries", [(False, 0), (True, 1)])
    def test_no_grad_allocates_output_once(self, training, temporaries):
        # the output, in train mode the squared deviations it sums, and up
        # to 128 KiB of numpy's broadcasting buffers
        x, gamma, beta, rm, rv = self.case(77, shape=(1, 8, 64, 64))
        args = [Tensor(a) for a in (x, gamma, beta)] + [rm, rv, training]
        with ad.no_grad():
            ad.batch_norm2d(*args)  # warm up
            tracemalloc.start()
            ad.batch_norm2d(*args)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < (1 + temporaries) * x.nbytes + 2 ** 17

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

    def test_consumed_graph_raises_until_detached(self):
        x = Tensor(rand(3, seed=22), requires_grad=True)
        y = ad.sigmoid(x * 2.0)
        loss = y.sum()
        loss.backward()
        with pytest.raises(ContractError, match="already consumed"):
            loss.backward()
        with pytest.raises(ContractError, match="already consumed"):
            (y * 3.0).sum().backward()
        x.grad = None
        (y.detach() * x).sum().backward()
        np.testing.assert_array_equal(x.grad, y.data)

    def test_sweep_releases_interior_nodes(self):
        x = Tensor(rand(2, 3, seed=23), requires_grad=True)
        w = Tensor(rand(3, seed=24), requires_grad=True)
        h = x * w
        c = ad.clip(h, -0.5, 0.5)
        loss = ad.sigmoid(c).sum()
        mask = weakref.ref(c._bw.__closure__[0].cell_contents)  # saved by clip's closure only
        assert isinstance(mask(), np.ndarray)
        loss.backward()
        assert mask() is None
        assert x.grad.shape == x.shape and w.grad.shape == w.shape
        for node in (h, c, loss):
            assert node.grad is None and node._parents == () and node._bw is ad._consumed

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


class TestZeroPad:
    @pytest.mark.parametrize("shape,pads", [
        ((3, 4), (1, 2, 0, 3)), ((2, 3, 5, 6), (2, 2, 2, 2)),
        ((2, 1, 4, 4), (0, 3, 0, 1)), ((1, 2, 3, 4, 5), (0, 0, 0, 0))])
    def test_matches_np_pad(self, shape, pads):
        x = rand(*shape)
        top, bottom, left, right = pads
        want = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(top, bottom), (left, right)])
        got = ad.zero_pad(x, *pads)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert not np.shares_memory(got, x)


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

    def test_conv_stride2(self):
        # the channel-first form, odd input under stride 2
        rng = np.random.default_rng(28)
        x = Tensor(rng.standard_normal((1, 2, 5, 7)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.4)
        assert ad.finite_difference_check(
            lambda t: (ad.conv2d(t, w, stride=2, padding=1) ** 2.0).sum(), x) < 1e-4
        assert ad.finite_difference_check(
            lambda t: (ad.conv2d(x, t, stride=2, padding=1) ** 2.0).sum(), w) < 1e-4

    def test_conv_output_shift(self):
        # the output-shift form: stride 1, C_out < C_in
        rng = np.random.default_rng(29)
        x = Tensor(rng.standard_normal((2, 4, 5, 6)))
        w = Tensor(rng.standard_normal((1, 4, 3, 3)) * 0.4)
        b = Tensor(rng.standard_normal(1))
        assert ad.finite_difference_check(
            lambda t: (ad.conv2d(t, w, b, padding=1) ** 2.0).sum(), x) < 1e-4
        assert ad.finite_difference_check(
            lambda t: (ad.conv2d(x, t, b, padding=1) ** 2.0).sum(), w) < 1e-4
        assert ad.finite_difference_check(
            lambda t: (ad.conv2d(x, w, t, padding=1) ** 2.0).sum(), b) < 1e-4

    def test_depthwise_conv3x3(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal((1, 2, 4, 5)))
        w = Tensor(rng.standard_normal((2, 3, 3)) * 0.4)
        b = Tensor(rng.standard_normal(2))
        assert ad.finite_difference_check(
            lambda t: (ad.depthwise_conv3x3(x, w, t) ** 2.0).sum(), b) < 1e-4
        assert ad.finite_difference_check(
            lambda t: (ad.depthwise_conv3x3(t, w, b) ** 2.0).sum(), x) < 1e-4

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

    def test_div_both_operands_broadcast(self):
        rng = np.random.default_rng(33)
        a = Tensor(rng.standard_normal((2, 1)))
        b = Tensor(rng.uniform(0.5, 2.0, 3))
        assert ad.finite_difference_check(lambda t: ((t / b) ** 2.0).sum(), a) < 1e-4
        assert ad.finite_difference_check(lambda t: ((a / t) ** 2.0).sum(), b) < 1e-4
        assert ad.finite_difference_check(lambda t: (2.0 / t).sum(), b) < 1e-4

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


def _fused_op_cases():
    """A param (leaves, op, tape nodes) for each fused op: `op()` runs it on
    the leaf Tensors and returns its outputs; `tape nodes` is what it
    records when it records."""
    rng = np.random.default_rng(90)
    shape = (2, 3, 4, 5)
    rm, rv = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)
    cases = []

    def case(name, arrays, op, nodes):
        leaves = [Tensor(a) for a in arrays]
        cases.append(pytest.param(leaves, lambda: op(*leaves), nodes, id=name))

    for training in (True, False):
        case(f"batch_norm2d-{'train' if training else 'eval'}",
             [rng.standard_normal(shape), rng.uniform(0.5, 1.5, 3), rng.standard_normal(3)],
             lambda x, g, b, t=training: (ad.batch_norm2d(x, g, b, rm.copy(), rv.copy(), t),), 1)
    vx = [rng.standard_normal(shape), rng.standard_normal(shape) + 0.5]
    case("IF", vx, lambda v, x: if_step(v, x, NeuronConfig(kind="IF")), 2)
    case("LIF", vx, lambda v, x: lif_step(v, x, NeuronConfig(kind="LIF")), 2)
    case("PLIF", vx + [np.array(0.4)],
         lambda v, x, inv: _charge_fire_reset(v, x, inv, NeuronConfig(kind="PLIF")), 2)
    case("mp_step-float", vx, lambda v, x: mp_step(v, x, 2.5)[:1], 1)
    case("mp_step-Tensor", vx + [rng.uniform(1.1, 5.0, (2, 3, 1, 1))],
         lambda v, x, tau: mp_step(v, x, tau)[:1], 1)
    conv = [rng.standard_normal(shape), rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)]
    case("conv2d", conv, lambda x, w, b: (ad.conv2d(x, w, b, stride=2, padding=1),), 1)
    case("conv2d-narrow", [conv[0], rng.standard_normal((1, 3, 3, 3)), rng.standard_normal(1)],
         lambda x, w, b: (ad.conv2d(x, w, b, padding=1),), 1)
    case("upsample2x_conv2d", conv, lambda x, w, b: (ad.upsample2x_conv2d(x, w, b),), 1)
    case("depthwise_conv3x3",
         [rng.standard_normal(shape), rng.standard_normal((3, 3, 3)), rng.standard_normal(3)],
         lambda x, w, b: (ad.depthwise_conv3x3(x, w, b),), 1)
    return cases


class TestRecordingRule:
    """Every fused op records by `make_op`'s rule: a tape node only outside
    `no_grad` and when some parent requires gradients."""

    @pytest.mark.parametrize("leaves,op,nodes", _fused_op_cases())
    @pytest.mark.parametrize("mode", ["no_grad", "constants", "taped", "last_parent"])
    def test_records_only_when_a_gradient_is_needed(self, monkeypatch, mode, leaves, op, nodes):
        # "last_parent": only the last operand (a bias, beta, x, 1/tau or
        # tau) needs a gradient, which is enough to record
        for k, leaf in enumerate(leaves):
            leaf.requires_grad = (mode in ("no_grad", "taped")
                                  or mode == "last_parent" and k == len(leaves) - 1)
        answers, recorded = [], []
        recording, make_op = ad._recording, ad.make_op
        monkeypatch.setattr(ad, "_recording", lambda p: answers.append(recording(p)) or answers[-1])
        monkeypatch.setattr(ad, "make_op", lambda *a: recorded.append(make_op(*a)) or recorded[-1])
        if mode == "no_grad":
            with ad.no_grad():
                outputs = op()
        else:
            outputs = op()
        records = mode in ("taped", "last_parent")
        # the op and each node it builds ask the one rule, and get one answer
        assert answers and set(answers) == {records}
        assert sum(out._bw is not None for out in recorded) == (nodes if records else 0)
        for out in outputs:
            assert out.requires_grad == records
            assert (out._bw is not None) == records and bool(out._parents) == records
