"""Stateful neuron layers: IF/LIF/PLIF spiking neurons, the non-spiking
membrane-potential (MP_LIF) neuron, and its adaptive-tau AMP variant.

Design choices:
- Hard reset to v_reset; the reset gate is detached during backward so
  gradient flows through the charged potential only.
- H(0) = 1: a neuron exactly at threshold spikes.
- Surrogate backward through the spike is the shifted-arctan derivative
  1 / (1 + pi^2 x^2).
- PLIF and AMP parameterize 1/tau = clip(sigmoid(w), 1e-12, 1 - 1e-12)
  (`inv_tau`), so tau > 1 for every w, even where sigmoid rounds to 0 or 1.

Each step is one fused autodiff op:
- An IF/LIF/PLIF step charges, fires and hard-resets in one pass and
  records two tape nodes, the spikes and v_new = where(fired, v_reset, v_c).
  Their backward closures share one surrogate multiplier
  1 / (1 + pi^2 (v_c - v_th)^2) and a bool `fired` mask; the reset gate
  is a constant, so v_new passes its gradient to v_c only where no spike
  fired. Only PLIF also keeps its drive -(v - v_rest) + x, the gradient of
  v_c by its 1/tau.
- `mp_step` records one node and keeps no full-size array: its 1/tau
  gradient reads x - v_prev from its inputs, which the tape holds anyway.
- Under `no_grad` each op allocates each output once and computes into it
  with `out=`; it writes into no input. (`mp_step` adds one transient
  product.) The forward keeps the order of operations of the unfused
  expressions, so its outputs are bitwise those of the composed ops.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, ShapeError, bounded, check_fields

SPIKING_KINDS = ("IF", "LIF", "PLIF")
MP_KINDS = ("MP_LIF", "AMP_LIF")
FIXED_TAU_KINDS = ("LIF", "MP_LIF")  # the kinds whose leak takes the config's tau


def _check_tau(tau, kind, name="tau"):
    """ConfigError unless the fixed tau of a LIF or MP_LIF neuron is > 1:
    at tau <= 1 the leak overshoots rest (tau = 0.5 takes v = 1 to -1)."""
    if not tau > 1.0:
        raise ConfigError(f"{name} must be > 1 for {kind}, got {tau}")


@dataclass
class NeuronConfig:
    kind: str = bounded(choices=SPIKING_KINDS + MP_KINDS, default="LIF")
    v_th: float = 1.0
    v_reset: float = 0.0
    v_rest: float = 0.0
    tau: float = 2.0

    def __post_init__(self):
        check_fields(self)
        if self.kind in FIXED_TAU_KINDS:
            _check_tau(self.tau, self.kind, "NeuronConfig.tau")


def surrogate_grad(x):
    """The backward multiplier 1 / (1 + pi^2 x^2) as a plain array."""
    return 1.0 / (1.0 + np.pi ** 2 * np.asarray(x, dtype=np.float64) ** 2)


def _check_same_shape(v_prev, x):
    if v_prev.shape != x.shape:
        raise ShapeError(f"membrane potential {v_prev.shape} and input {x.shape} differ in shape")


def _charge_fire_reset(v_prev, x, inv, cfg):
    """One spiking step as one op; returns (spikes, v_new).

    `inv` is 1/tau: None for IF (v_c = v + x), a float for LIF or a 0-d
    Tensor for PLIF (v_c = v + inv * (-(v - v_rest) + x)).
    """
    v_prev, x = ad.as_tensor(v_prev), ad.as_tensor(x)
    _check_same_shape(v_prev, x)
    plif = isinstance(inv, Tensor)
    parents = (v_prev, x, inv) if plif else (v_prev, x)
    a = inv.data if plif else inv
    record = ad._recording(parents)
    v = v_prev.data
    drive = None
    if a is None:
        v_c = np.add(v, x.data, out=np.empty(v.shape))
    else:
        # x - (v - v_rest) is bitwise -(v - v_rest) + x
        v_c = np.subtract(v, cfg.v_rest, out=np.empty(v.shape))
        np.subtract(x.data, v_c, out=v_c)
        if record and plif:
            drive = v_c
            v_c = np.multiply(drive, a, out=np.empty(v.shape))
        else:
            np.multiply(v_c, a, out=v_c)
        np.add(v, v_c, out=v_c)
    fired = np.greater_equal(v_c, cfg.v_th)  # v_c - v_th >= 0: H(0) = 1
    spikes = fired.astype(np.float64)
    sg = surrogate_grad(v_c - cfg.v_th) if record else None
    np.copyto(v_c, cfg.v_reset, where=fired)

    def to_parents(g_c):
        """The gradient at v_c, passed on to (v_prev, x[, inv])."""
        if a is None:
            return g_c, g_c
        grads = (g_c * (1.0 - a) if v_prev.requires_grad else None,
                 g_c * a if x.requires_grad else None)
        return grads if drive is None else grads + ((g_c * drive).sum(),)

    return (ad.make_op(spikes, parents, lambda g: to_parents(g * sg)),
            ad.make_op(v_c, parents, lambda g: to_parents(np.where(fired, 0.0, g))))


def lif_step(v_prev, x, cfg):
    """One leaky integrate-and-fire step: charge, spike, hard reset."""
    _check_tau(cfg.tau, "LIF", "NeuronConfig.tau")
    return _charge_fire_reset(v_prev, x, 1.0 / cfg.tau, cfg)


def if_step(v_prev, x, cfg):
    """Integrate-and-fire: no leak, same spike/reset rule."""
    return _charge_fire_reset(v_prev, x, None, cfg)


def inv_tau(pre):
    """1/tau = clip(sigmoid(pre), 1e-12, 1 - 1e-12), differentiable: the
    rule of PLIF's and AMP's tau. The clip keeps tau in (1, 1e12] where
    sigmoid rounds to exactly 0 or 1 (|pre| >= 37)."""
    return ad.clip(ad.sigmoid(ad.as_tensor(pre)), 1e-12, 1.0 - 1e-12)


def plif_tau(plif_w):
    """tau = 1 / inv_tau(w); differentiable, always > 1."""
    return ad.pow(inv_tau(plif_w), -1.0)


def mp_step(v_prev, x, tau):
    """Non-spiking membrane update V = (1 - 1/tau) V_prev + (1/tau) X, as
    one op.

    Returns (output, new state); the output is the potential itself.
    `tau` is a float > 1, or AMP's per-sample, per-channel Tensor of shape
    (N, C, 1, 1).
    """
    v_prev, x = ad.as_tensor(v_prev), ad.as_tensor(x)
    _check_same_shape(v_prev, x)
    if isinstance(tau, Tensor):
        if x.ndim != 4 or tau.shape != x.shape[:2] + (1, 1):
            raise ShapeError(f"tau of shape {tau.shape} does not fit input {x.shape}; "
                             "it must be (N, C, 1, 1)")
        inv = 1.0 / tau.data
        parents = (v_prev, x, tau)
    else:
        _check_tau(tau, "MP_LIF")
        inv = 1.0 / tau
        parents = (v_prev, x)
    v_new = np.multiply(1.0 - inv, v_prev.data)
    v_new += inv * x.data

    def bw(g):
        grads = (g * (1.0 - inv) if v_prev.requires_grad else None,
                 g * inv if x.requires_grad else None)
        if len(parents) == 2 or not tau.requires_grad:
            return grads
        g_inv = (g * (x.data - v_prev.data)).sum(axis=(2, 3), keepdims=True)
        return grads + (-g_inv * inv * inv,)  # d(1/tau)/dtau = -1/tau^2

    out = ad.make_op(v_new, parents, bw)
    return out, out


@dataclass
class AmpBlockParams:
    """Weights of the adaptive-tau block for a layer with C channels.

    conv_w (C,3,3) / conv_b (C,): depthwise 3x3 for the local-intensity
    branch; lin_w (C,2C) / lin_b (C,): maps [F, I] to per-channel
    pre-sigmoid activations.
    """

    conv_w: Tensor
    conv_b: Tensor
    lin_w: Tensor
    lin_b: Tensor

    @classmethod
    def create(cls, channels, rng=None):
        if rng is None:
            conv_w = np.zeros((channels, 3, 3))
            lin_w = np.zeros((channels, 2 * channels))
        else:
            s = 1.0 / np.sqrt(9.0)
            conv_w = rng.uniform(-s, s, (channels, 3, 3))
            s = 1.0 / np.sqrt(2.0 * channels)
            lin_w = rng.uniform(-s, s, (channels, 2 * channels))
        return cls(conv_w=Tensor(conv_w, requires_grad=True),
                   conv_b=Tensor(np.zeros(channels), requires_grad=True),
                   lin_w=Tensor(lin_w, requires_grad=True),
                   lin_b=Tensor(np.zeros(channels), requires_grad=True))

    def tensors(self):
        return [self.conv_w, self.conv_b, self.lin_w, self.lin_b]


def amp_compute_tau(spikes, params):
    """Per-channel adaptive tau from a binary spike tensor (N,C,H,W).

    F = channel firing rate (global average pool), I = pooled local
    intensity (global max pool of a depthwise conv); tau =
    1 / inv_tau(linear([F, I])), shape (N, C), every entry > 1.
    """
    spikes = ad.as_tensor(spikes)
    f = ad.global_avg_pool(spikes)
    conv = ad.depthwise_conv3x3(spikes, params.conv_w, params.conv_b)
    i = ad.global_max_pool(conv)
    pre = ad.linear(ad.concat([f, i], axis=1), params.lin_w, params.lin_b)
    return ad.pow(inv_tau(pre), -1.0)


def amp_lif_step(v_prev, x, s_input, params):
    """MP update whose tau is recomputed from the layer's spike tensor."""
    tau = amp_compute_tau(s_input, params)
    n, c = tau.shape
    return mp_step(v_prev, x, ad.reshape(tau, (n, c, 1, 1)))


class NeuronLayer:
    """Base class holding the membrane-potential state of one layer."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.state = None

    def reset_state(self):
        self.state = None

    def detach_state(self):
        if self.state is not None:
            self.state = self.state.detach()

    def _prev(self, x):
        if self.state is None:
            return Tensor(np.zeros(x.shape))
        return self.state

    def parameters(self):
        return []


class SpikingLayer(NeuronLayer):
    """IF / LIF / PLIF spiking layer; step() returns the binary spikes."""

    def __init__(self, cfg):
        super().__init__(cfg)
        if cfg.kind not in SPIKING_KINDS:
            raise ConfigError(f"not a spiking kind: {cfg.kind}")
        # a PLIF weight starts at 0, that is at tau = 2
        self.plif_w = Tensor(0.0, requires_grad=True) if cfg.kind == "PLIF" else None

    def step(self, x):
        v_prev = self._prev(x)
        if self.cfg.kind == "IF":
            spikes, v_new = if_step(v_prev, x, self.cfg)
        elif self.cfg.kind == "LIF":
            spikes, v_new = lif_step(v_prev, x, self.cfg)
        else:
            spikes, v_new = _charge_fire_reset(v_prev, x, inv_tau(self.plif_w), self.cfg)
        self.state = v_new
        return spikes

    def parameters(self):
        return [self.plif_w] if self.plif_w is not None else []


class MPLayer(NeuronLayer):
    """Non-spiking layer outputting its membrane potential: MP_LIF with a
    fixed tau, or AMP_LIF with tau recomputed from the layer's spikes."""

    def __init__(self, cfg, channels=None, rng=None):
        super().__init__(cfg)
        if cfg.kind not in MP_KINDS:
            raise ConfigError(f"not an MP kind: {cfg.kind}")
        self.amp = None
        if cfg.kind == "AMP_LIF":
            if channels is None:
                raise ConfigError("AMP_LIF layer needs its channel count")
            self.amp = AmpBlockParams.create(channels, rng=rng)

    def step(self, x, s_input=None):
        v_prev = self._prev(x)
        if self.amp is None:
            out, v_new = mp_step(v_prev, x, self.cfg.tau)
        else:
            if s_input is None:
                raise ContractError("AMP_LIF step needs the layer's spike tensor")
            out, v_new = amp_lif_step(v_prev, x, s_input, self.amp)
        self.state = v_new
        return out

    def parameters(self):
        return [] if self.amp is None else self.amp.tensors()
