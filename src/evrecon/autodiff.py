"""Minimal reverse-mode autodiff on numpy arrays.

Everything runs in float64. Ops record themselves onto the implicit tape
(parent links + backward closures) whenever gradients are enabled and at
least one input requires them; `backward()` on a scalar then does one
reverse topological sweep, summing gradients across all uses. The sweep
consumes the graph: each saved array is freed as soon as its last reader
has run, so a training step's memory stays at its forward's peak.
"""

from contextlib import contextmanager
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, ShapeError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled():
    """False inside `no_grad`, where ops record no tape nodes."""
    return _grad_enabled


def _consumed(grad):
    """The backward closure of a node that a backward already swept."""
    raise ContractError("backward() through a graph a backward already consumed")


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """N-dimensional float64 array with an optional gradient."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bw")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._bw = None

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def detach(self):
        """Constant copy sharing the same buffer; cuts the graph."""
        return Tensor(self.data)

    # -- graph machinery -----------------------------------------------------
    def backward(self):
        """Accumulate d(self)/d(leaf) into the `.grad` of every leaf that
        requires gradients.

        The sweep consumes the graph as it walks it: each interior node
        loses its parents, closure and gradient once its closure has run.
        Leaves keep their `.grad`. A second `backward()` through a consumed
        node raises ContractError; `detach()` makes its value usable again.
        """
        if self.data.size != 1:
            raise ContractError("backward() requires a scalar tensor")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._bw is None:
                continue
            for parent, g in zip(node._parents, node._bw(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g
            # drop the node's links, closure and gradient, so every array
            # its closure saved is freed once its last reader has run
            node._parents, node.grad, node._bw = (), None, _consumed

    # -- operators -----------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, exponent):
        return pow(self, exponent)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def abs(self):
        return tabs(self)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def make_op(data, parents, bw):
    """Build an op result; records the backward closure if grads are live.

    `bw(out_grad)` must return one gradient (array or None) per parent.
    """
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._bw = bw
    return out


# -- elementwise -------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return make_op(
        a.data + b.data, (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return make_op(
        a.data - b.data, (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return make_op(
        a.data * b.data, (a, b),
        lambda g: (_unbroadcast(g * b.data, a.data.shape),
                   _unbroadcast(g * a.data, b.data.shape)))


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data
    return make_op(
        out, (a, b),
        lambda g: (_unbroadcast(g / b.data, a.data.shape),
                   _unbroadcast(-g * out / b.data, b.data.shape)))


def pow(a, exponent):
    a = as_tensor(a)
    e = float(exponent)
    out = a.data ** e
    return make_op(out, (a,), lambda g: (g * e * a.data ** (e - 1.0),))


def sqrt(a):
    return pow(a, 0.5)


def sigmoid(a):
    a = as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    return make_op(s, (a,), lambda g: (g * s * (1.0 - s),))


def tabs(a):
    a = as_tensor(a)
    return make_op(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def clip(a, lo, hi):
    a = as_tensor(a)
    mask = (a.data > lo) & (a.data < hi)
    return make_op(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


def maximum(a, b):
    a, b = as_tensor(a), as_tensor(b)
    mask = a.data >= b.data
    return make_op(
        np.maximum(a.data, b.data), (a, b),
        lambda g: (_unbroadcast(g * mask, a.data.shape),
                   _unbroadcast(g * ~mask, b.data.shape)))


# -- reductions / reshaping --------------------------------------------------

def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return make_op(out, (a,), bw)


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = 1
        for ax in axes:
            n *= a.data.shape[ax]
    return div(tsum(a, axis=axis, keepdims=keepdims), n)


def reshape(a, shape):
    a = as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return make_op(a.data.reshape(shape), (a,),
                   lambda g: (g.reshape(a.data.shape),))


def getitem(a, idx):
    a = as_tensor(a)

    def bw(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return make_op(a.data[idx], (a,), bw)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return make_op(np.concatenate([t.data for t in tensors], axis=axis),
                   tensors, bw)


def roll(a, shift, axis):
    a = as_tensor(a)
    return make_op(np.roll(a.data, shift, axis=axis), (a,),
                   lambda g: (np.roll(g, tuple(-s for s in shift)
                              if isinstance(shift, tuple) else -shift,
                              axis=axis),))


# -- linear algebra ----------------------------------------------------------

def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return make_op(a.data @ b.data, (a, b),
                   lambda g: (g @ b.data.T, a.data.T @ g))


def linear(x, weight, bias=None):
    """Affine map: x (N, F_in) @ weight.T (F_in, F_out) + bias."""
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear shape mismatch: x {x.shape}, weight {weight.shape}")
    out = matmul(x, transpose(weight))
    if bias is not None:
        out = add(out, bias)
    return out


def transpose(a):
    a = as_tensor(a)
    return make_op(a.data.T, (a,), lambda g: (g.T,))


# -- convolution and friends -------------------------------------------------

def zero_pad(x, top, bottom, left, right):
    """x (..., H, W) with zero rows added above and below and zero columns
    left and right of its last two axes; equals np.pad's constant mode."""
    *lead, h, w = x.shape
    out = np.zeros((*lead, top + h + bottom, left + w + right), dtype=x.dtype)
    out[..., top:top + h, left:left + w] = x
    return out


_workspace = np.empty(0)  # grow-only buffer behind every conv column block
_TILE = 2 ** 21  # elements of one conv column tile (16 MiB), unless one output row needs more


def _columns(shape):
    """A float64 `shape` view of the start of the column workspace, which
    grows when too small. Its contents last until the next call, so no
    returned array or backward closure may hold it; evrecon runs ops on
    one thread. Reuse spares a fresh block's page faults: glibc unmaps a
    freed block above 32 MB and faults it in again on the next call."""
    global _workspace
    size = math.prod(shape)
    if size > _workspace.size:
        _workspace = np.empty(size)
    return _workspace[:size].reshape(shape)


def _conv(x, w, stride, padding, need_x, need_w):
    """Cross-correlation of arrays x (N,C_in,H,W) and w (C_out,C_in,k,k);
    returns the output and its backward g -> (gx, gw), where a gradient
    not needed is None. The backward keeps only the padded input.

    Channel-first form, in tiles of whole output rows of one batch
    element, each with a (C_in*k*k, rows*W_out) column block of at most
    `_TILE` elements (one row when a row alone is larger): one copy of a
    strided k x k window view of the padded input fills the block, and one
    `wmat @ cols` GEMM writes the tile's rows of the NCHW output. A conv
    whose whole block fits is one tile. The backward runs the same tiles:
    it gathers the columns again and adds `g @ cols.T` to the weight
    gradient, then computes `wmat.T @ g` and scatters it with k*k slice
    adds. Every column block lives in the reused workspace (`_columns`),
    never in a returned array.

    Output-shift form, for stride 1 with C_out < C_in (the prediction
    conv): one GEMM of the (k*k*C_out, C_in) tap-major kernel with the
    flattened padded input yields every tap's partial output at once; tap
    (i, j) is then the row range shifted by i*W_p + j, and k*k shifted adds
    sum them. One extra bottom row of padding keeps the last shifts inside
    the buffer, and the W_p - W_out wrap-around columns are cropped.
    """
    n, c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    h_out, w_out = (hp - k) // stride + 1, (wp - k) // stride + 1
    taps = [(i, j) for i in range(k) for j in range(k)]

    if stride == 1 and c_out < c_in:
        flat = zero_pad(x, padding, padding + 1, padding, padding)
        flat = flat.reshape(n, c_in, (hp + 1) * wp)
        wtap = w.transpose(2, 3, 0, 1).reshape(k * k * c_out, c_in)
        span = h_out * wp
        parts = (wtap @ flat).reshape(n, k * k, c_out, (hp + 1) * wp)
        full = np.zeros((n, c_out, span))
        for t, (i, j) in enumerate(taps):
            full += parts[:, t, :, i * wp + j:i * wp + j + span]
        out = np.ascontiguousarray(full.reshape(n, c_out, h_out, wp)[..., :w_out])

        def bw(g):
            gfull = np.zeros((n, c_out, h_out, wp))
            gfull[..., :w_out] = g
            gfull = gfull.reshape(n, c_out, span)
            gparts = np.zeros((n, k * k, c_out, (hp + 1) * wp))
            for t, (i, j) in enumerate(taps):
                gparts[:, t, :, i * wp + j:i * wp + j + span] = gfull
            gparts = gparts.reshape(n, k * k * c_out, (hp + 1) * wp)
            gx = gw = None
            if need_x:
                gx = (wtap.T @ gparts).reshape(n, c_in, hp + 1, wp)
                gx = gx[:, :, padding:padding + h, padding:padding + wd]
            if need_w:
                gw = (gparts @ flat.transpose(0, 2, 1)).sum(0)
                gw = gw.reshape(k, k, c_out, c_in).transpose(2, 3, 0, 1)
            return gx, gw

        return out, bw

    xp = zero_pad(x, padding, padding, padding, padding) if padding else x
    wmat = w.reshape(c_out, c_in * k * k)
    rows = max(1, _TILE // (c_in * k * k * w_out))
    tiles = [(b, r0, min(r0 + rows, h_out)) for b in range(n) for r0 in range(0, h_out, rows)]

    def gather(b, r0, r1):
        cols = _columns((c_in, k, k, r1 - r0, w_out))
        windows = sliding_window_view(xp[b], (k, k), axis=(1, 2))[:, ::stride, ::stride]
        np.copyto(cols, windows[:, r0:r1].transpose(0, 3, 4, 1, 2))
        return cols.reshape(c_in * k * k, (r1 - r0) * w_out)

    out = np.empty((n, c_out, h_out, w_out))
    for b, r0, r1 in tiles:
        np.matmul(wmat, gather(b, r0, r1), out=out[b, :, r0:r1].reshape(c_out, -1))

    def bw(g):
        gw = np.zeros(wmat.shape) if need_w else None
        gxp = np.zeros(xp.shape) if need_x else None
        for b, r0, r1 in tiles:
            gt = g[b, :, r0:r1].reshape(c_out, -1)
            if need_w:  # first: gcols below overwrites the gathered columns
                gw += gt @ gather(b, r0, r1).T
            if need_x:
                gcols = np.matmul(wmat.T, gt, out=_columns((c_in * k * k, gt.shape[1])))
                gcols = gcols.reshape(c_in, k, k, r1 - r0, w_out)
                for i, j in taps:
                    gxp[b, :, i + stride * r0:i + stride * r1:stride,
                        j:j + stride * w_out:stride] += gcols[:, i, j]
        gx = None if gxp is None else gxp[:, :, padding:padding + h, padding:padding + wd]
        return gx, None if gw is None else gw.reshape(w.shape)

    return out, bw


def _conv_operands(op, x, weight, bias):
    """Check conv operands; returns x, weight and bias as Tensors."""
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"{op} expects 4-D operands, got {x.shape}, {weight.shape}")
    c_out, c_in, k, k2 = weight.shape
    if k != k2:
        raise ShapeError(f"{op} expects square kernels")
    if x.shape[1] != c_in:
        raise ShapeError(f"{op} channel mismatch: input {x.shape[1]} vs kernel {c_in}")
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (c_out,):
            raise ShapeError(f"{op} bias shape {bias.shape} != ({c_out},)")
    return x, weight, bias


def _conv_op(out, bw, x, weight, bias):
    """Record a conv result `out` (written in place: the bias is added to
    it) with backward `bw` (g -> (gx, gw)); the bias gradient is g summed
    over (N, H, W)."""
    if bias is None:
        return make_op(out, (x, weight), bw)
    out += bias.data[:, None, None]
    return make_op(out, (x, weight, bias), lambda g: bw(g) + (g.sum((0, 2, 3)),))


def conv2d(x, weight, bias=None, stride=1, padding=0):
    """Cross-correlation of x (N,C_in,H,W) with weight (C_out,C_in,k,k)."""
    x, weight, bias = _conv_operands("conv2d", x, weight, bias)
    k = weight.shape[2]
    if stride < 1:
        raise ShapeError("conv2d stride must be >= 1")
    if x.shape[2] + 2 * padding < k or x.shape[3] + 2 * padding < k:
        raise ShapeError("conv2d input smaller than kernel")
    out, bw = _conv(x.data, weight.data, stride, padding,
                    x.requires_grad, weight.requires_grad)
    return _conv_op(out, bw, x, weight, bias)


def _phase_fold(k):
    """The 0/1 matrix F (k*k, 4*k'*k') and padding p of the phase fold.

    On the 2x nearest-upsampled grid, output row 2i+a (phase a) reads tap
    dy in [-r, r] (r = k//2) from input row i + floor((a + dy) / 2), an
    offset in [-p, p] with p = ceil(r/2), k' = 2p+1. Column
    ((2a+b)*k' + my)*k' + mx of F sums the k x k taps that phase (a, b)
    reads at input offset (my-p, mx-p).
    """
    r = k // 2
    p = (r + 1) // 2
    kp = 2 * p + 1
    taps = np.arange(-r, r + 1)
    # fold1[a, t, m] = 1 when tap t of phase a reads input offset m - p
    fold1 = (((np.arange(2)[:, None] + taps) // 2)[:, :, None]
             == np.arange(-p, p + 1)).astype(np.float64)
    f = np.einsum("aym,bxn->yxabmn", fold1, fold1)
    return f.reshape(k * k, 4 * kp * kp), p


def upsample2x_conv2d(x, weight, bias=None):
    """conv2d(upsample_nearest2x(x), weight, bias, padding=k//2) for odd k,
    computed without building the upsampled input.

    The k x k kernel folds into four k' x k' phase kernels (one per output
    pixel of each 2x2 block, see `_phase_fold`), which run as one
    (4*C_out)-channel stride-1 conv on the input grid; a depth-to-space
    shuffle interleaves the phases.
    """
    x, weight, bias = _conv_operands("upsample2x_conv2d", x, weight, bias)
    c_out, c_in, k, _ = weight.shape
    if k % 2 == 0:
        raise ShapeError(f"upsample2x_conv2d expects an odd kernel, got {k}")
    n, _, h, w = x.shape
    fold, p = _phase_fold(k)
    kp = 2 * p + 1
    w4 = (weight.data.reshape(c_out * c_in, k * k) @ fold).reshape(c_out, c_in, 4, kp, kp)
    w4 = w4.transpose(0, 2, 1, 3, 4).reshape(4 * c_out, c_in, kp, kp)
    out4, conv_bw = _conv(x.data, w4, 1, p, x.requires_grad, weight.requires_grad)
    out = (out4.reshape(n, c_out, 2, 2, h, w).transpose(0, 1, 4, 2, 5, 3)
           .reshape(n, c_out, 2 * h, 2 * w))

    def bw(g):
        g4 = (g.reshape(n, c_out, h, 2, w, 2).transpose(0, 1, 3, 5, 2, 4)
              .reshape(n, 4 * c_out, h, w))
        gx, gw4 = conv_bw(g4)
        if gw4 is None:
            return gx, None
        gw4 = gw4.reshape(c_out, 4, c_in, kp * kp).transpose(0, 2, 1, 3)
        gw = gw4.reshape(c_out * c_in, 4 * kp * kp) @ fold.T
        return gx, gw.reshape(weight.shape)

    return _conv_op(out, bw, x, weight, bias)


def separable_filter(x, taps):
    """Valid cross-correlation of the last two axes of x with the constant
    kernel np.outer(taps, taps), one pass per axis; the kernel gets no
    gradient. The backward filters the output gradient, zero-padded by
    len(taps) - 1 on each side, with the taps reversed."""
    x, taps = as_tensor(x), np.asarray(taps, dtype=np.float64)
    k = taps.size
    if x.ndim < 2 or min(x.shape[-2:]) < k:
        raise ShapeError(f"separable_filter input {x.shape} smaller than its {k} taps")

    def filter_valid(a, taps):
        rows = np.einsum("...hwk,k->...hw", sliding_window_view(a, k, axis=-2), taps)
        return np.einsum("...hwk,k->...hw", sliding_window_view(rows, k, axis=-1), taps)

    return make_op(filter_valid(x.data, taps), (x,),
                   lambda g: (filter_valid(zero_pad(g, k - 1, k - 1, k - 1, k - 1), taps[::-1]),))


_DEPTHWISE_GROUP = 32768  # elements of the input planes one forward group covers


def depthwise_conv3x3(x, weight, bias=None):
    """Per-channel 3x3 convolution, stride 1, padding 1.

    weight has shape (C, 3, 3) and bias (C,); each channel is filtered
    independently. The forward runs over groups of channels whose planes
    hold at most _DEPTHWISE_GROUP elements together (at least one channel),
    so the nine shifted taps of a group are summed while its planes are
    still in cache; each output element sums its taps in the same order
    whatever the grouping.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    n, c, h, w = x.shape
    if weight.shape != (c, 3, 3):
        raise ShapeError(f"depthwise weight shape {weight.shape} != ({c}, 3, 3)")
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (c,):
            raise ShapeError(f"depthwise bias shape {bias.shape} != ({c},)")
    xp = zero_pad(x.data, 1, 1, 1, 1)
    out = np.zeros((n, c, h, w))
    group = max(1, _DEPTHWISE_GROUP // (n * h * w))
    for c0 in range(0, c, group):
        cs = slice(c0, c0 + group)
        for i in range(3):
            for j in range(3):
                tap = weight.data[cs, i, j][None, :, None, None]
                out[:, cs] += tap * xp[:, cs, i:i + h, j:j + w]

    def bw(g):
        gw = np.zeros_like(weight.data)
        gxp = np.zeros_like(xp)
        for i in range(3):
            for j in range(3):
                gw[:, i, j] = np.einsum("nchw,nchw->c", g, xp[:, :, i:i + h, j:j + w])
                gxp[:, :, i:i + h, j:j + w] += g * weight.data[:, i, j][None, :, None, None]
        return gxp[:, :, 1:1 + h, 1:1 + w], gw

    return _conv_op(out, bw, x, weight, bias)


def upsample_nearest2x(x):
    """Replicate each pixel into a 2x2 block."""
    x = as_tensor(x)
    n, c, h, w = x.shape
    out = x.data.repeat(2, axis=2).repeat(2, axis=3)
    return make_op(out, (x,),
                   lambda g: (g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)),))


def global_avg_pool(x):
    """(N,C,H,W) -> (N,C) mean over the spatial plane."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects 4-D input, got {x.shape}")
    return tmean(x, axis=(2, 3))


def global_max_pool(x):
    """(N,C,H,W) -> (N,C) spatial max; gradient to the first argmax."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"global_max_pool expects 4-D input, got {x.shape}")
    n, c, h, w = x.shape
    flat = x.data.reshape(n, c, h * w)
    arg = flat.argmax(axis=2)
    out = np.take_along_axis(flat, arg[:, :, None], axis=2)[:, :, 0]

    def bw(g):
        gx = np.zeros_like(flat)
        np.put_along_axis(gx, arg[:, :, None], g[:, :, None], axis=2)
        return (gx.reshape(x.data.shape),)

    return make_op(out, (x,), bw)


BN_EPS = 1e-5  # batch norm's variance offset, also used when folding it into a conv
BN_MOMENTUM = 0.1  # weight of a batch's statistics in the running buffers


def batch_norm2d(x, gamma, beta, running_mean, running_var, training):
    """Per-channel batch norm over (N,H,W), one op.

    Train mode normalizes with batch statistics and updates the running
    buffers in place (unbiased variance, torch convention); eval mode uses
    the running buffers as constants. The op keeps x̂ = (x - mean) * istd
    and the per-channel inverse std istd for backward. Train mode's
    backward is the closed form (Ioffe & Szegedy, arXiv:1502.03167),
    gx = gamma * istd * (g - mean(g) - x̂ * mean(g * x̂)) over (N,H,W);
    eval mode's is gx = gamma * istd * g. Under `no_grad` x̂ is normalized,
    scaled and shifted in its own buffer, which becomes the output.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    n, c, h, w = x.shape
    gshape = (1, c, 1, 1)
    axes = (0, 2, 3)
    cnt = n * h * w
    record = _grad_enabled and (x.requires_grad or gamma.requires_grad or beta.requires_grad)
    if training:
        mu = x.data.sum(axis=axes, keepdims=True) / cnt
        xhat = np.subtract(x.data, mu)
        var = (xhat ** 2.0).sum(axis=axes, keepdims=True) / cnt
        corr = cnt / (cnt - 1) if cnt > 1 else 1.0
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu.ravel()
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * corr * var.ravel()
        istd = (var + BN_EPS) ** -0.5
    else:
        xhat = np.subtract(x.data, running_mean.reshape(gshape))
        istd = 1.0 / np.sqrt(running_var.reshape(gshape) + BN_EPS)
    xhat *= istd
    scale = gamma.data.reshape(gshape)
    out = np.multiply(xhat, scale, out=None if record else xhat)
    out += beta.data.reshape(gshape)

    def bw(g):
        gsum = g.sum(axis=axes, keepdims=True)
        gxhat = (g * xhat).sum(axis=axes, keepdims=True)
        gx = None
        if x.requires_grad:
            if training:
                gx = g - gsum / cnt
                gx -= xhat * (gxhat / cnt)
                gx *= scale * istd
            else:
                gx = g * (scale * istd)
        return gx, gxhat.ravel(), gsum.ravel()

    return make_op(out, (x, gamma, beta), bw)


# -- optimizer ---------------------------------------------------------------

class Adam:
    """Standard bias-corrected Adam over a list of parameter Tensors."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter {p.data.shape}")
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / (1.0 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1.0 - self.beta2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# -- gradient checking -------------------------------------------------------

def finite_difference_check(f, x):
    """Max relative error between analytic and central-difference gradients.

    `f` maps a Tensor to a scalar Tensor and must be smooth at `x`.
    """
    h = 1e-3  # the central-difference step
    x = Tensor(np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64),
               requires_grad=True)
    out = f(x)
    out.backward()
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)

    fd = np.zeros_like(x.data)
    flat = x.data.ravel()
    fd_flat = fd.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        with no_grad():
            hi = f(x).item()
        flat[i] = orig - h
        with no_grad():
            lo = f(x).item()
        flat[i] = orig
        fd_flat[i] = (hi - lo) / (2.0 * h)

    denom = np.maximum(np.abs(fd), 1e-8)
    return float(np.max(np.abs(analytic - fd) / denom))
