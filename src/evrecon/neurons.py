"""Stateful neuron layers: IF/LIF/PLIF spiking neurons, the non-spiking
membrane-potential (MP_LIF) neuron, and its adaptive-tau AMP variant.

Design choices:
- Hard reset to v_reset; the reset gate is detached during backward so
  gradient flows through the charged potential only.
- H(0) = 1: a neuron exactly at threshold spikes.
- Surrogate backward through the spike is the shifted-arctan derivative
  1 / (1 + pi^2 x^2).
- PLIF and AMP parameterize tau = 1 / sigmoid(w), guaranteeing tau > 1.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, check_field_types, check_finite

SPIKING_KINDS = ("IF", "LIF", "PLIF")
MP_KINDS = ("MP_LIF", "AMP_LIF")


@dataclass
class NeuronConfig:
    kind: str = "LIF"
    v_th: float = 1.0
    v_reset: float = 0.0
    v_rest: float = 0.0
    tau: float = 2.0

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in SPIKING_KINDS + MP_KINDS:
            raise ConfigError(f"unknown neuron kind {self.kind!r}")
        check_finite(self, "v_th", "v_reset", "v_rest", "tau")
        if self.kind in ("LIF", "MP_LIF") and self.tau <= 1.0:
            raise ConfigError(f"NeuronConfig.tau must be > 1 for {self.kind}, got {self.tau}")


def _surrogate_den(x):
    return 1.0 + np.pi ** 2 * x ** 2


def surrogate_spike(x):
    """Heaviside forward (1 iff x >= 0) with arctan-surrogate backward."""
    x = ad.as_tensor(x)
    out = (x.data >= 0.0).astype(np.float64)
    return ad.make_op(out, (x,), lambda g: (g / _surrogate_den(x.data),))


def surrogate_grad(x):
    """The backward multiplier 1 / (1 + pi^2 x^2) as a plain array."""
    return 1.0 / _surrogate_den(np.asarray(x, dtype=np.float64))


def _fire_and_reset(v_charge, v_th, v_reset):
    spikes = surrogate_spike(v_charge - v_th)
    gate = spikes.detach()  # reset is treated as a constant during backward
    v_new = v_charge * (1.0 - gate) + v_reset * gate
    return spikes, v_new


def _leaky_charge(v_prev, x, inv, v_rest):
    """Charge toward rest plus input: v + inv * (-(v - v_rest) + x), inv = 1/tau."""
    return v_prev + inv * (-(v_prev - v_rest) + x)


def lif_step(v_prev, x, cfg):
    """One leaky integrate-and-fire step: charge, spike, hard reset."""
    if cfg.tau <= 0:
        raise ConfigError(f"tau must be > 0, got {cfg.tau}")
    v_prev, x = ad.as_tensor(v_prev), ad.as_tensor(x)
    v_charge = _leaky_charge(v_prev, x, 1.0 / cfg.tau, cfg.v_rest)
    return _fire_and_reset(v_charge, cfg.v_th, cfg.v_reset)


def if_step(v_prev, x, cfg):
    """Integrate-and-fire: no leak, same spike/reset rule."""
    v_charge = ad.as_tensor(v_prev) + ad.as_tensor(x)
    return _fire_and_reset(v_charge, cfg.v_th, cfg.v_reset)


def plif_tau(plif_w):
    """tau = 1 / sigmoid(w); differentiable, always > 1."""
    return ad.pow(ad.sigmoid(ad.as_tensor(plif_w)), -1.0)


def mp_step(v_prev, x, tau):
    """Non-spiking membrane update: V = (1 - 1/tau) V_prev + (1/tau) X.

    Returns (output, new state); the output is the potential itself.
    `tau` may be a scalar or a broadcastable Tensor (per-channel).
    """
    v_prev, x = ad.as_tensor(v_prev), ad.as_tensor(x)
    if isinstance(tau, Tensor):
        inv = ad.pow(tau, -1.0)
    else:
        if tau <= 0:
            raise ConfigError(f"tau must be > 0, got {tau}")
        inv = 1.0 / tau
    v_new = (1.0 - inv) * v_prev + inv * x
    return v_new, v_new


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
    1 / sigmoid(linear([F, I])), shape (N, C), every entry > 1.
    """
    spikes = ad.as_tensor(spikes)
    f = ad.global_avg_pool(spikes)
    conv = ad.depthwise_conv3x3(spikes, params.conv_w, params.conv_b)
    i = ad.global_max_pool(conv)
    pre = ad.linear(ad.concat([f, i], axis=1), params.lin_w, params.lin_b)
    # clamp away from the saturated sigmoid values so tau stays in (1, inf)
    # even when |pre| is large enough for sigmoid to round to exactly 0 or 1
    sig = ad.clip(ad.sigmoid(pre), 1e-12, 1.0 - 1e-12)
    return ad.pow(sig, -1.0)


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
            inv = ad.pow(plif_tau(self.plif_w), -1.0)
            v_charge = _leaky_charge(v_prev, x, inv, self.cfg.v_rest)
            spikes, v_new = _fire_and_reset(v_charge, self.cfg.v_th, self.cfg.v_reset)
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
