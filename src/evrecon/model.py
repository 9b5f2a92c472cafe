"""U-shaped spiking reconstruction networks, built from one stage table.

`stage_table(spec)` states the network once: its stages in forward order
(the conv head, the stride-2 encoders `down{i}`, the residual halves
`res{r}-1`/`res{r}-2`, the upsampling decoders `up{j}` and the prediction
layer `pred`), each with its kernel, stride, channels and output grid.
`Network` builds one `ConvStage` per row (its conv, batch norm, neuron and
optional potential neuron) and derives everything else from that list:
parameters, recurrent state ids, checkpoint tensor names and the layer ids
of a spike tally; the energy model prices its rows (`energy.count_ann_ops`).

The fully spiking variant (EVSNN) runs head -> encoders -> residual blocks
-> decoders (with spike skip connections) -> a conv + MP_LIF prediction
layer whose membrane potential is the output image. The potential-assisted
variant (PA-EVSNN) differs only in the table's `potential` flag: every
encoder and decoder stage gets an MP (or adaptive-tau AMP) neuron; encoder
potentials ride the skip connections and decoder potentials ride the
backbone into the next stage.

A decoder's nearest 2x upsample and conv run as one `ad.upsample2x_conv2d`,
which computes on the low-resolution grid through a phase fold of the
kernel. The energy model still prices a decoder as a conv on the upsampled
grid (`energy.count_ann_ops`), the paper's convention: what is computed and
what is counted are kept apart on purpose.
"""

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from .autodiff import Tensor
from .errors import (ConfigError, ContractError, ParseError, ShapeError, bounded, check_fields,
                     config_from_dict)
from .events import MAX_SENSOR_SIDE
from .neurons import (FIXED_TAU_KINDS, SPIKING_KINDS, MPLayer, NeuronConfig, SpikingLayer,
                      _check_tau)

SKIP_KINDS = ("ADD", "OR", "IAND", "CONCAT")
_KERNEL_FIELDS = ("head_kernel", "encoder_kernel", "residual_kernel", "decoder_kernel",
                  "prediction_kernel")
# Upper bounds on a spec's sizes (height and width take MAX_SENSOR_SIDE), so
# an oversized spec fails at once instead of exhausting memory while its
# stage table or network is built.
MAX_CHANNELS = 1024
MAX_RESIDUAL = 64
MAX_KERNEL = 31


@dataclass
class NetworkSpec:
    height: int = bounded(1, MAX_SENSOR_SIDE)
    width: int = bounded(1, MAX_SENSOR_SIDE)
    n_channels: int = bounded(1, MAX_CHANNELS, default=32)
    n_encoders: int = bounded(1, default=3)
    n_residual: int = bounded(0, MAX_RESIDUAL, default=1)
    skip_kind: str = bounded(choices=SKIP_KINDS, default="CONCAT")
    neuron_kind: str = bounded(choices=SPIKING_KINDS, default="LIF")
    potential_assisted: bool = False
    amp_enabled: bool = False
    tau: float = 2.0
    v_th: float = 1.0
    v_reset: float = 0.0
    head_kernel: int = bounded(1, MAX_KERNEL, default=5)
    encoder_kernel: int = bounded(1, MAX_KERNEL, default=5)
    residual_kernel: int = bounded(1, MAX_KERNEL, default=3)
    decoder_kernel: int = bounded(1, MAX_KERNEL, default=5)
    prediction_kernel: int = bounded(1, MAX_KERNEL, default=3)

    def __post_init__(self):
        check_fields(self)
        for name in _KERNEL_FIELDS:
            if getattr(self, name) % 2 == 0:
                raise ConfigError(f"NetworkSpec.{name} must be odd, got {getattr(self, name)}")
        if self.amp_enabled and not self.potential_assisted:
            raise ConfigError("NetworkSpec.amp_enabled requires NetworkSpec.potential_assisted")
        # a side below 2**n_encoders, found without raising 2 to a huge power
        if min(self.height, self.width) >> self.n_encoders < 1:
            raise ConfigError(f"NetworkSpec.n_encoders = {self.n_encoders} stride-2 encoders "
                              f"halve NetworkSpec.height = {self.height} x NetworkSpec.width = "
                              f"{self.width} below one pixel: input too small for the encoder "
                              f"stride schedule")
        for kind in (self.neuron_kind, self.potential_kind):
            if kind in FIXED_TAU_KINDS:
                _check_tau(self.tau, kind, "NetworkSpec.tau")

    def padded_size(self):
        """Spatial size rounded up to a multiple of the total stride."""
        m = 2 ** self.n_encoders
        return (-(-self.height // m) * m, -(-self.width // m) * m)

    @property
    def potential_kind(self):
        """The MP kind of the encoder and decoder potentials, None without them."""
        if not self.potential_assisted:
            return None
        return "AMP_LIF" if self.amp_enabled else "MP_LIF"

    def neuron_config(self, kind):
        """The NeuronConfig of this spec's neurons of `kind`; they rest at v_reset."""
        return NeuronConfig(kind=kind, v_th=self.v_th, v_reset=self.v_reset,
                            v_rest=self.v_reset, tau=self.tau)


def skip_connect(kind, a, b):
    """Merge encoder spikes `a` into decoder spikes `b`.

    ADD: a+b (values up to 2, non-spike); OR: max; IAND: (1-a)*b;
    CONCAT: channel concatenation with `a` first.
    """
    if kind not in SKIP_KINDS:
        raise ConfigError(f"unknown skip kind {kind!r}")
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"skip operand shapes differ: {a.shape} vs {b.shape}")
    if kind == "ADD":
        return a + b
    if kind == "OR":
        return ad.maximum(a, b)
    if kind == "IAND":
        return (1.0 - a) * b
    return ad.concat([a, b], axis=1)


@dataclass(frozen=True)
class StageGeometry:
    """One row of the stage table."""

    name: str     # head, down{i}, res{r}-{1,2}, up{j} or pred
    role: str     # head, down, res, up (its conv reads the 2x upsampled input) or pred
    kernel: int
    stride: int
    cin: int
    cout: int
    h_out: int
    w_out: int
    potential: bool = False  # carries an MP/AMP potential neuron


def stage_table(spec):
    """The network's stages in forward order.

    Channels double at each stride-2 encoder and halve at each decoder;
    CONCAT skips double a decoder's input channels.
    """
    hp, wp = spec.padded_size()
    nc, pa = spec.n_channels, spec.potential_assisted
    rows = [StageGeometry("head", "head", spec.head_kernel, 1, 1, nc, hp, wp)]
    h, w = hp, wp
    for i in range(1, spec.n_encoders + 1):
        h, w = h // 2, w // 2
        rows.append(StageGeometry(f"down{i}", "down", spec.encoder_kernel, 2,
                                  nc * 2 ** (i - 1), nc * 2 ** i, h, w, potential=pa))
    c_mid = nc * 2 ** spec.n_encoders
    for r in range(1, spec.n_residual + 1):
        for half in (1, 2):
            rows.append(StageGeometry(f"res{r}-{half}", "res", spec.residual_kernel, 1,
                                      c_mid, c_mid, h, w))
    skip_factor = 2 if spec.skip_kind == "CONCAT" else 1
    for j in range(1, spec.n_encoders + 1):
        h, w = h * 2, w * 2
        cout = nc * 2 ** (spec.n_encoders - j)
        rows.append(StageGeometry(f"up{j}", "up", spec.decoder_kernel, 1,
                                  2 * cout * skip_factor, cout, h, w, potential=pa))
    rows.append(StageGeometry("pred", "pred", spec.prediction_kernel, 1, nc, 1, hp, wp))
    return rows


class ConvStage:
    """One built row of the stage table: a conv (a decoder's nearest 2x
    upsample fused into it), batch norm on every stage but `pred`, its
    neuron (spiking, or the MP_LIF output layer of `pred`) and, on rows
    with `potential`, an MP/AMP potential neuron."""

    def __init__(self, geom, spec, rng):
        """`rng` draws the conv and AMP weights; None leaves them zero, for
        a checkpoint to fill."""
        self.geom = geom
        k, cout = geom.kernel, geom.cout
        shape, scale = (cout, geom.cin, k, k), 1.0 / np.sqrt(geom.cin * k * k)
        self.w = Tensor(np.zeros(shape) if rng is None else rng.uniform(-scale, scale, shape),
                        requires_grad=True)
        self.b = Tensor(np.zeros(cout), requires_grad=True)
        self.has_bn = geom.role != "pred"
        if self.has_bn:
            self.gamma = Tensor(np.ones(cout), requires_grad=True)
            self.beta = Tensor(np.zeros(cout), requires_grad=True)
            self.running_mean = np.zeros(cout)
            self.running_var = np.ones(cout)
        self.neuron = (MPLayer(NeuronConfig(kind="MP_LIF", tau=2.0)) if geom.role == "pred"
                       else SpikingLayer(spec.neuron_config(spec.neuron_kind)))
        # the AMP block draws from `rng` after the conv
        self.potential = (MPLayer(spec.neuron_config(spec.potential_kind), channels=cout,
                                  rng=rng) if geom.potential else None)

    @property
    def name(self):
        return self.geom.name

    def forward(self, x, training):
        """Conv + batch norm."""
        if self.geom.role == "up":
            u = ad.upsample2x_conv2d(x, self.w, self.b)
        else:
            u = ad.conv2d(x, self.w, self.b, stride=self.geom.stride,
                          padding=self.geom.kernel // 2)
        if self.has_bn:
            u = ad.batch_norm2d(u, self.gamma, self.beta,
                                self.running_mean, self.running_var, training)
        return u

    def parameters(self):
        """The conv and batch-norm parameters; the neurons' are the network's."""
        return [self.w, self.b] + ([self.gamma, self.beta] if self.has_bn else [])

    def named_tensors(self):
        out = {"w": self.w.data, "b": self.b.data}
        if self.has_bn:
            out.update(gamma=self.gamma.data, beta=self.beta.data,
                       running_mean=self.running_mean, running_var=self.running_var)
        return {f"{self.name}.{key}": array for key, array in out.items()}

    def fold_bn(self):
        """Fold batch-norm statistics into the conv weights and disable it."""
        if not self.has_bn:
            return
        inv = self.gamma.data / np.sqrt(self.running_var + ad.BN_EPS)
        self.w.data *= inv[:, None, None, None]
        self.b.data = (self.b.data - self.running_mean) * inv + self.beta.data
        self.has_bn = False


def _with_potential(x, potential):
    return x if potential is None else x + potential


def spike_rate(spike_counts):
    """Spikes fired over neurons stepped in a spike tally filled by
    `Network.forward_step`; 0.0 for an empty tally."""
    fired = sum(f for f, _ in spike_counts.values())
    stepped = sum(n for _, n in spike_counts.values())
    return fired / stepped if stepped else 0.0


class Network:
    """A built reconstruction network with per-layer recurrent state."""

    def __init__(self, spec, seed=0):
        self._build(spec, np.random.default_rng(seed))

    def _build(self, spec, rng):
        """Build the stages of `spec`, drawing their weights from `rng` (None:
        zero weights)."""
        self.spec = spec
        self.training = False
        hp, wp = spec.padded_size()
        self._pad = (hp - spec.height, wp - spec.width)

        self.stages = [ConvStage(g, spec, rng) for g in stage_table(spec)]
        self._roles = {}
        self.neurons = {}  # state id -> neuron layer, in forward order
        for stage in self.stages:
            self._roles.setdefault(stage.geom.role, []).append(stage)
            self.neurons[stage.name] = stage.neuron
            if stage.potential is not None:
                self.neurons[f"{stage.name}-mp"] = stage.potential

    # -- bookkeeping ---------------------------------------------------------
    def parameters(self):
        params = [p for stage in self.stages for p in stage.parameters()]
        return params + [p for layer in self.neurons.values() for p in layer.parameters()]

    def num_parameters(self):
        return sum(p.data.size for p in self.parameters())

    def reset_state(self):
        for layer in self.neurons.values():
            layer.reset_state()

    def detach_state(self):
        for layer in self.neurons.values():
            layer.detach_state()

    def get_state(self):
        """Membrane potentials keyed by layer id (arrays, detached)."""
        return {lid: None if layer.state is None else layer.state.data.copy()
                for lid, layer in self.neurons.items()}

    def set_state(self, state):
        if set(state) != set(self.neurons):
            raise ContractError("state keys do not match this network's layers")
        for lid, value in state.items():
            self.neurons[lid].state = None if value is None else Tensor(value.copy())

    def train_mode(self, flag=True):
        self.training = flag

    def fold_batchnorm(self):
        for stage in self.stages:
            stage.fold_bn()

    def zero_biases(self):
        for stage in self.stages:
            stage.b.data[:] = 0.0
            if stage.has_bn:
                stage.beta.data[:] = 0.0

    # -- forward -------------------------------------------------------------
    def forward_step(self, bin_plane, spike_counts=None):
        """Advance one temporal bin; returns the predicted image Tensor.

        `bin_plane` is an (H, W) or (N, 1, H, W) array. `spike_counts`,
        if given, is a spike tally: each spiking layer adds the spikes it
        fired and the neurons it stepped to `spike_counts[layer id]`, a
        `[fired, stepped]` pair of ints, so one dict can tally a step, a
        sequence or an epoch. Read it with `spike_rate`.
        """
        spec = self.spec
        x = np.asarray(bin_plane, dtype=np.float64)
        if x.ndim == 2:
            x = x[None, None]
        if x.ndim != 4 or x.shape[1] != 1:
            raise ShapeError(f"expected a single-channel bin, got shape {x.shape}")
        if x.shape[2] != spec.height or x.shape[3] != spec.width:
            raise ShapeError(f"bin is {x.shape[2]}x{x.shape[3]}, "
                             f"spec wants {spec.height}x{spec.width}")
        ph, pw = self._pad
        if ph or pw:
            x = ad.zero_pad(x, 0, ph, 0, pw)

        def fire(stage, inp):
            """Conv, spiking neuron and potential neuron; returns (spikes, potential)."""
            u = stage.forward(inp, self.training)
            s = stage.neuron.step(u)
            if spike_counts is not None:
                tally = spike_counts.setdefault(stage.name, [0, 0])
                tally[0] += int(np.count_nonzero(s.data))
                tally[1] += s.data.size
            pot = None if stage.potential is None else stage.potential.step(u, s_input=s)
            return s, pot

        roles = self._roles
        s, _ = fire(roles["head"][0], Tensor(x))
        skips = []
        for stage in roles["down"]:
            s, pot = fire(stage, s)
            skips.append((s, pot))
        res = roles.get("res", [])
        for first, second in zip(res[::2], res[1::2]):
            mid, _ = fire(first, s)
            out, _ = fire(second, mid)
            s = ad.maximum(s, out)  # OR-merge keeps the block spike-compatible
        pot = None
        for stage, (a, a_pot) in zip(roles["up"], reversed(skips)):
            fused = skip_connect(spec.skip_kind, _with_potential(a, a_pot),
                                 _with_potential(s, pot))
            s, pot = fire(stage, fused)

        pred = roles["pred"][0]
        image = pred.neuron.step(pred.forward(_with_potential(s, pot), self.training))
        if ph or pw:
            image = image[:, :, :spec.height, :spec.width]
        return image

    def forward_sequence(self, bins, spike_counts=None):
        """The one inference loop: reset state, then yield each bin's (H, W)
        image (first batch element) as it is computed, one at a time.

        Each step runs without gradient recording; recording is back on
        between images. `spike_counts` tallies every step, as in `forward_step`.
        """
        self.reset_state()
        for plane in bins:
            with ad.no_grad():
                image = self.forward_step(plane, spike_counts).data[0, 0].copy()
            yield image

    # -- serialization -------------------------------------------------------
    def named_tensors(self):
        """Checkpoint name -> live array: every conv stage's tensors, then
        each neuron layer's parameters as `{state id}.np{k}`."""
        tensors = {}
        for stage in self.stages:
            tensors.update(stage.named_tensors())
        for lid, layer in self.neurons.items():
            for k, t in enumerate(layer.parameters()):
                tensors[f"{lid}.np{k}"] = t.data
        return tensors

    def save(self, path):
        ckpt.save_tensors(path, self.named_tensors(),
                          meta={"spec": asdict(self.spec)})

    @classmethod
    def load(cls, path):
        tensors, meta = ckpt.load_tensors(path)
        if not isinstance(meta, dict) or "spec" not in meta:
            raise ContractError(f"{path}: checkpoint has no embedded network spec")
        net = cls.__new__(cls)  # every tensor is overwritten below: draw no weights
        net._build(config_from_dict(NetworkSpec, meta["spec"], f"{path}: spec"), None)
        for stage in net.stages:
            # a stage saved after fold_bn() has no batch-norm tensors
            stage.has_bn = stage.has_bn and f"{stage.name}.gamma" in tensors
        named = net.named_tensors()
        for name in tensors:
            if name not in named:
                raise ParseError(f"{path}: the spec names no tensor {name!r}")
        for name, array in named.items():
            if name not in tensors:
                raise ParseError(f"{path}: checkpoint has no tensor {name!r}")
            if tensors[name].shape != array.shape:
                raise ParseError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                                 f"the spec wants {array.shape}")
            if not np.isfinite(tensors[name]).all():
                raise ParseError(f"{path}: tensor {name!r} holds a non-finite value")
            array[...] = tensors[name]
        return net
