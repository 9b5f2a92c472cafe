"""Mutated JSON inputs through the command line, with hypothesis.

`spec.json` (`profile --spec`), `train.json` (`train --epochs 0`),
`scene.json` (`simulate`) and `meta.json` (`train --data`) are each
mutated: values replaced, a key dropped or added, the whole document
replaced, or its text cut short. Each command runs in a child process
under an address-space limit (RLIMIT_AS, set in the child only), so an
unbounded allocation shows as `error: out of memory` instead of taking
the machine's memory. It must exit 0, or exit 1 with `error:` and no
traceback.

Legal sizes are drawn small (integers up to 64) so that each run stays
short: a legal scene costs time in proportion to its size, which is no
error path. Values past every bound, huge and non-finite numbers, wrong
types and broken documents reach the error paths; a legal scene too
large for the limit reaches the out-of-memory path.
"""

import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import evrecon
from evrecon.cli import main
from evrecon.synthetic import SceneConfig

pytestmark = pytest.mark.slow

SRC = Path(evrecon.__file__).resolve().parents[1]
MEMORY_LIMIT = 2 * 1024 ** 3  # bytes of address space for each command

SPEC = {"height": 16, "width": 16, "n_channels": 4, "n_encoders": 2, "n_residual": 1,
        "skip_kind": "CONCAT", "neuron_kind": "LIF", "potential_assisted": True,
        "amp_enabled": True, "tau": 2.0, "v_th": 1.0, "v_reset": 0.0, "head_kernel": 5,
        "encoder_kernel": 5, "residual_kernel": 3, "decoder_kernel": 5,
        "prediction_kernel": 3}
TRAIN = {"lr": 0.002, "batch": 2, "epochs": 100, "lambda_tc": 1.0, "l0": 2, "loss_every": 5,
         "seq_len": 40, "bins_per_window": 1}
SCENE = {"height": 16, "width": 16, "steps": 6, "contrast": 0.1, "max_shift": 1,
         "motion": [0, 1]}


def _meta():
    """The meta.json that `simulate` writes for SCENE."""
    scene = SceneConfig(**SCENE).scene(np.random.default_rng(0))
    return {"texture": scene.texture.tolist(), "trajectory": [list(s) for s in scene.trajectory],
            "contrast": scene.contrast, "dt": scene.dt}


META = _meta()
SPECIAL = [0, 1, -1, 2, 0.5, -0.5, 5e-324, 1e-300, 1e308, 65536, 2**31, 2**63, 2**70, 10**400,
           math.nan, math.inf, -math.inf, True, False, None, "", "1", "LIF", "XOR", "CONCAT",
           "MP_LIF", [], [1, 0], [0.5, 0], [[0, 0]], [[0, 1], [1, 0]], [[0.5]], {}]
# Mostly single values, so that most documents reach the range checks and
# many pass them; some nested containers, so that some do not.
SCALARS = st.sampled_from(SPECIAL) | st.integers(-3, 64) | st.floats()
VALUES = st.one_of(SCALARS, SCALARS, SCALARS,
                   st.lists(SCALARS | st.lists(SCALARS, max_size=3), max_size=4),
                   st.dictionaries(st.text(max_size=4), SCALARS, max_size=2), st.text(max_size=4))


@st.composite
def mutated(draw, doc):
    """The JSON text of `doc` with one kind of mutation."""
    action = draw(st.sampled_from(["replace", "replace", "replace", "drop", "add",
                                   "document", "cut"]))
    doc = dict(doc)
    if action == "replace":
        for key in draw(st.lists(st.sampled_from(sorted(doc)), min_size=1, max_size=3,
                                 unique=True)):
            doc[key] = draw(VALUES, label=key)
    elif action == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif action == "add":
        doc[draw(st.text(max_size=6))] = draw(VALUES)
    elif action == "document":
        doc = draw(VALUES)
    text = json.dumps(doc)
    if action == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_cli(*args):
    """`evrecon args` in a child process. BLAS stays at one thread through
    the variables tests/conftest.py sets, which the child inherits."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "evrecon.cli", *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=60, preexec_fn=_limit_memory)


def assert_clean(proc):
    assert "Traceback" not in proc.stderr, proc.stderr
    if proc.returncode != 0:
        assert proc.returncode == 1 and proc.stderr.startswith("error: "), \
            (proc.returncode, proc.stderr)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The valid spec.json and simulated scene that `train` runs read
    beside the file under test."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "spec.json").write_text(json.dumps(SPEC))
    (root / "scene.json").write_text(json.dumps(SCENE))
    assert main(["simulate", "--config", str(root / "scene.json"),
                 "--out", str(root / "sim")]) == 0
    return root


FUZZ = settings(derandomize=True, max_examples=40, deadline=None)


@FUZZ
@given(text=mutated(SPEC))
def test_spec_json(text):
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(text)
        assert_clean(run_cli("profile", "--spec", spec))


@FUZZ
@given(text=mutated(TRAIN))
@example(text=json.dumps({**TRAIN, "bins_per_window": 2**31}))  # 4 TB of bins
def test_train_json(inputs, text):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "train.json"
        config.write_text(text)
        assert_clean(run_cli("train", "--spec", inputs / "spec.json", "--data", inputs / "sim",
                             "--train-config", config, "--epochs", 0, "--out", tmp))


@FUZZ
@given(text=mutated(SCENE))
@example(text=json.dumps({**SCENE, "steps": 10**9}))  # drew its walk for hours
@example(text=json.dumps({**SCENE, "contrast": 5e-324}))  # crossing counts overflowed
def test_scene_json(text):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scene.json"
        config.write_text(text)
        assert_clean(run_cli("simulate", "--config", config, "--out", Path(tmp) / "sim"))


@FUZZ
@given(text=mutated(META))
@example(text=json.dumps({**META, "contrast": 1e-300}))  # crossing counts overflowed
def test_meta_json(inputs, text):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        data.mkdir()
        (data / "meta.json").write_text(text)
        assert_clean(run_cli("train", "--spec", inputs / "spec.json", "--data", data,
                             "--epochs", 0, "--out", tmp))


def test_legal_scene_too_large_for_memory_is_an_error():
    # a 65535 x 65535 texture alone needs 34 GB
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scene.json"
        config.write_text(json.dumps({"height": 65535, "width": 65535}))
        proc = run_cli("simulate", "--config", config, "--out", tmp)
        assert proc.returncode == 1 and proc.stderr.startswith("error: out of memory"), \
            proc.stderr
