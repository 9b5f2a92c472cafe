"""`errors.check_fields` against the per-class checks it replaced.

The five config classes once stated their single-field rules in their own
`__post_init__`: loops over (name, bound) pairs, `if` chains, a positive-
and-finite helper and `check_finite`. Those checks are kept below, as
plain functions, as the oracle of what each class accepts. Every field
is tried alone with every value of a pool around every bound, and a
hypothesis property tries fields in pairs and triples: each class must
refuse exactly what its oracle refuses, with a message that starts with
`Class.field`. The one rule the oracle lacks is the scene-length limit
(`MAX_SCENE_STEPS`), which is new.
"""

import dataclasses
import math
import numbers
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evrecon.errors import ConfigError, bounded, check_fields
from evrecon.events import MAX_SENSOR_SIDE
from evrecon.model import MAX_CHANNELS, MAX_KERNEL, MAX_RESIDUAL, NetworkSpec
from evrecon.neurons import NeuronConfig
from evrecon.synthetic import MAX_SCENE_STEPS, SceneConfig, SyntheticScene
from evrecon.training import TrainConfig

KERNELS = ("head_kernel", "encoder_kernel", "residual_kernel", "decoder_kernel",
           "prediction_kernel")


# -- the replaced checks -------------------------------------------------------

def old_check_field_types(cls, v):
    for f in dataclasses.fields(cls):
        value = v[f.name]
        if value is None and f.default is None:
            ok = True
        elif f.type is float:
            ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
        elif f.type is int:
            ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        else:
            ok = isinstance(value, f.type)
        if not ok:
            raise ConfigError(f"{cls.__name__}.{f.name} must be {f.type.__name__}")


def old_check_finite(v, *names):
    for name in names:
        try:
            finite = math.isfinite(v[name])
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(f"{name} must be finite")


def old_check_positive(value):
    try:
        ok = 0.0 < float(value) < float("inf")
    except OverflowError:
        ok = False
    if not ok:
        raise ConfigError("must be positive and finite")


def old_neuron_config(v):
    old_check_field_types(NeuronConfig, v)
    if v["kind"] not in ("IF", "LIF", "PLIF", "MP_LIF", "AMP_LIF"):
        raise ConfigError("unknown neuron kind")
    old_check_finite(v, "v_th", "v_reset", "v_rest", "tau")
    if v["kind"] in ("LIF", "MP_LIF") and not v["tau"] > 1.0:
        raise ConfigError("tau must be > 1")


def old_network_spec(v):
    old_check_field_types(NetworkSpec, v)
    for name, bound in [("height", MAX_SENSOR_SIDE), ("width", MAX_SENSOR_SIDE),
                        ("n_channels", MAX_CHANNELS), ("n_residual", MAX_RESIDUAL),
                        *((name, MAX_KERNEL) for name in KERNELS)]:
        if v[name] > bound:
            raise ConfigError(f"{name} must be at most {bound}")
    for name in KERNELS:
        if v[name] < 1 or v[name] % 2 == 0:
            raise ConfigError(f"{name} must be odd and positive")
    if v["skip_kind"] not in ("ADD", "OR", "IAND", "CONCAT"):
        raise ConfigError("unknown skip kind")
    if v["neuron_kind"] not in ("IF", "LIF", "PLIF"):
        raise ConfigError("backbone neuron must be IF/LIF/PLIF")
    for name, least in [("n_channels", 1), ("n_encoders", 1), ("n_residual", 0)]:
        if v[name] < least:
            raise ConfigError(f"{name} must be >= {least}")
    if v["amp_enabled"] and not v["potential_assisted"]:
        raise ConfigError("amp_enabled requires potential_assisted")
    if min(v["height"], v["width"]) >> v["n_encoders"] < 1:
        raise ConfigError("input too small for the encoder stride schedule")
    kinds = [v["neuron_kind"]]
    if v["potential_assisted"]:
        kinds.append("AMP_LIF" if v["amp_enabled"] else "MP_LIF")
    for kind in kinds:
        old_neuron_config(dict(kind=kind, v_th=v["v_th"], v_reset=v["v_reset"],
                               v_rest=v["v_reset"], tau=v["tau"]))


def old_train_config(v):
    old_check_field_types(TrainConfig, v)
    old_check_finite(v, "lr", "lambda_tc")
    for name in ("batch", "loss_every", "seq_len", "bins_per_window"):
        if v[name] <= 0:
            raise ConfigError(f"{name} must be positive")
    for name in ("epochs", "lr", "lambda_tc", "l0"):
        if v[name] < 0:
            raise ConfigError(f"{name} must be non-negative")


def old_scene_config(v):
    old_check_field_types(SceneConfig, v)
    for name in ("height", "width"):
        if not 1 <= v[name] <= MAX_SENSOR_SIDE:
            raise ConfigError(f"{name} must be in 1-{MAX_SENSOR_SIDE}")
    if v["steps"] < 2:
        raise ConfigError("steps must be >= 2")
    old_check_positive(v["contrast"])
    if not 0 <= v["max_shift"] <= MAX_SENSOR_SIDE:
        raise ConfigError(f"max_shift must be in 0-{MAX_SENSOR_SIDE}")
    if v["motion"] is not None:
        old_check_shifts([v["motion"]])


def old_synthetic_scene(v):
    # the texture rules run before these and are unchanged; the texture is
    # held valid here
    old_check_field_types(SyntheticScene, v)
    old_check_positive(v["contrast"])
    old_check_positive(v["dt"])
    if not v["trajectory"]:
        raise ConfigError("trajectory must hold at least one shift")
    old_check_shifts(v["trajectory"])


def old_check_shifts(shifts):
    for shift in shifts:
        if not (isinstance(shift, (list, tuple)) and len(shift) == 2
                and all(isinstance(s, int) and not isinstance(s, bool)
                        and abs(s) <= MAX_SENSOR_SIDE for s in shift)):
            raise ConfigError("not a [dy, dx] pair")


# -- the property --------------------------------------------------------------

ORACLES = {NetworkSpec: old_network_spec, TrainConfig: old_train_config,
           SceneConfig: old_scene_config, SyntheticScene: old_synthetic_scene,
           NeuronConfig: old_neuron_config}
REQUIRED = {NetworkSpec: dict(height=16, width=16),
            SyntheticScene: dict(texture=np.ones((2, 2)), trajectory=[(0, 0)])}
# Every bound the replaced checks used, and the scene-length limit.
BOUNDS = (0, 1, 2, MAX_SENSOR_SIDE, MAX_CHANNELS, MAX_RESIDUAL, MAX_KERNEL, MAX_SCENE_STEPS)
# Values every field is tried with: each bound and its neighbours, negatives,
# huge and non-finite numbers, bools, strings, every kind name the configs
# know, and shift lists.
POOL = ([b + d for b in BOUNDS for d in (-1, -0.5, 0, 0.5, 1)]
        + [3, 4, -2, 5e-324, 2**70, -2**70, 10**400, float("nan"), float("inf"),
           -float("inf"), True, False, None, "1", "", "ADD", "OR", "IAND", "CONCAT", "XOR",
           "IF", "LIF", "PLIF", "MP_LIF", "AMP_LIF", "lif", "GRU", [1, 0], [0.5, 0],
           [True, 0], [0, 0, 0], [], [[0, 0]], [(0, 0)] * 3, [(MAX_SENSOR_SIDE, 0)],
           [(MAX_SENSOR_SIDE + 1, 0)], [(0, 0), "x"], ((0, 0),)])
# Trajectories at and past the scene-length limit, tried on that field alone.
LONG = [[(0, 0)] * (MAX_SCENE_STEPS - 1), [(0, 0)] * MAX_SCENE_STEPS]


def base_values(cls):
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    return {**fields, **REQUIRED.get(cls, {})}


def fields_of(cls):
    """The fields whose rules moved; the texture rules are unchanged."""
    return [f.name for f in dataclasses.fields(cls) if f.name != "texture"]


def new_limit(cls, v):
    """Whether `v` breaks the scene-length limit, which the oracle lacks."""
    if cls is SceneConfig:
        return isinstance(v["steps"], int) and v["steps"] > MAX_SCENE_STEPS
    if cls is SyntheticScene:
        return isinstance(v["trajectory"], list) and len(v["trajectory"]) >= MAX_SCENE_STEPS
    return False


def assert_matches_oracle(cls, changes):
    """`cls` built from its valid base values with `changes` refuses them
    exactly when its oracle does or they break the new limit, and its
    message then starts with `Class.field` and names a changed field."""
    values = {**base_values(cls), **changes}
    try:
        ORACLES[cls](values)
        old_refused = False
    except ConfigError:
        old_refused = True
    try:
        cls(**values)
        error = None
    except ConfigError as exc:
        error = str(exc)
    assert (error is not None) == (old_refused or new_limit(cls, values)), (values, error)
    if error is not None:
        # a rule of one field names only it; a rule relating fields (the
        # stride schedule, amp_enabled with potential_assisted) names them all
        named = re.findall(rf"\b{cls.__name__}\.(\w+)", error)
        assert named and error.startswith(f"{cls.__name__}.{named[0]} "), error
        assert set(named) <= set(fields_of(cls)) and set(named) & set(changes), error


def test_every_single_field_value_matches_the_oracle():
    for cls in ORACLES:
        for name in fields_of(cls):
            for value in POOL + LONG if name == "trajectory" else POOL:
                assert_matches_oracle(cls, {name: value})


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.data())
def test_field_combinations_match_the_oracle(data):
    cls = data.draw(st.sampled_from(list(ORACLES)))
    names = data.draw(st.lists(st.sampled_from(fields_of(cls)), min_size=2, max_size=3,
                               unique=True))
    assert_matches_oracle(cls, {name: data.draw(st.sampled_from(POOL), label=name)
                                for name in names})


# -- the rule forms ------------------------------------------------------------

@dataclasses.dataclass
class Rules:
    count: int = bounded(1, 9, default=1)
    rate: float = bounded(above=0, default=1.0)
    kind: str = bounded(choices=("A", "B"), default="A")
    note: str = None

    def __post_init__(self):
        check_fields(self)


@pytest.mark.parametrize("kwargs,message", [
    (dict(count=0), "Rules.count must be >= 1, got 0"),
    (dict(count=10), "Rules.count must be at most 9, got 10"),
    (dict(count=1.0), "Rules.count must be int, got 1.0"),
    (dict(count=True), "Rules.count must be int, got True"),
    (dict(rate=0), "Rules.rate must be > 0, got 0"),
    (dict(rate=float("nan")), "Rules.rate must be finite, got nan"),
    (dict(rate=10**400), "Rules.rate must be finite, got " + repr(10**400)[:77] + "..."),
    (dict(kind="C"), "Rules.kind must be one of A/B, got 'C'"),
    (dict(note=3), "Rules.note must be str, got 3"),
])
def test_one_message_form_per_rule(kwargs, message):
    with pytest.raises(ConfigError) as info:
        Rules(**kwargs)
    assert str(info.value) == message


def test_defaults_and_none_pass():
    assert Rules(count=9, rate=5e-324, kind="B").note is None


@pytest.mark.parametrize("build,prefix", [
    (lambda v: Rules(count=v), "Rules.count must be int, got [0, 0, "),
    (lambda v: SceneConfig(motion=v), "SceneConfig.motion must hold [dy, dx] pairs"),
    (lambda v: SyntheticScene(texture=np.ones((2, 2)), trajectory=[v]),
     "SyntheticScene.trajectory must hold [dy, dx] pairs"),
])
def test_a_long_value_is_echoed_by_its_start(build, prefix):
    # the whole repr of a 100000-element list once made the message line
    with pytest.raises(ConfigError) as info:
        build([0] * 100000)
    message = str(info.value)
    assert message.startswith(prefix) and message.endswith("...") and len(message) < 200
