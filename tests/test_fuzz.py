"""Mutated JSON, text and binary inputs through the command line, with
hypothesis.

`spec.json` (`profile --spec`), `train.json` (`train --epochs 0`),
`scene.json` (`simulate`) and `meta.json` (`train --data`) are each
mutated: values replaced, a key dropped or added, the whole document
replaced, or its text cut short. An event file (`voxelize --events`), an
SPKT checkpoint (`reconstruct --checkpoint`) and a PGM ground-truth frame
(`probe --gt`) are damaged: bytes overwritten, the file cut short, or one
field replaced; a rejected checkpoint or frame must leave no --out behind.
Each command runs in a child process
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
import re
import resource
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import evrecon
from evrecon.checkpoint import META_KEY, load_tensors, save_tensors
from evrecon.cli import main
from evrecon.model import Network, NetworkSpec
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
    Network(NetworkSpec(**SPEC)).save(root / "checkpoint.spkt")
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


# -- text and binary inputs ----------------------------------------------------

EVENTS = (b"# 16 16\n0.001 3 4 1\n0.004 15 0 0  # a comment\n\n0.010 0 15 1\n"
          b"0.018 7 7 0\n0.020 2 9 1\n0.031 12 1 0\n")
# a token in place of a text field: numbers past every bound, non-finite and
# malformed numbers, separators and bytes that are not UTF-8
TOKENS = (st.sampled_from([b"0", b"1", b"-1", b"2", b"0.5", b"-0.5", b"1e30", b"-1e30",
                           b"1e400", b"nan", b"inf", b"-inf", b"65535", b"65536", b"4096",
                           b"99999999999999999999", b"9223372036854775807",
                           b"-9223372036854775808", b"0x10", b"1_0", b"", b" ", b"\n", b"#",
                           b"P5", b"\xff", b"\xc3", b"a"])
          | st.integers(-2**70, 2**70).map(lambda v: str(v).encode())
          | st.floats().map(lambda v: repr(v).encode()))
# an integer in place of a binary field: both ends of every width, and any value
SPECIAL_INTS = [0, 1, 2, 3, 255, 2**16, 2**31 - 1, 2**31, 2**32 - 1, 2**63, 2**64 - 1]


def _packed(size):
    """Little-endian unsigned integers of `size` bytes."""
    top = 2 ** (8 * size) - 1
    values = st.sampled_from([v for v in SPECIAL_INTS if v <= top]) | st.integers(0, top)
    return values.map(lambda v: v.to_bytes(size, "little"))


def _text_fields(raw, end=None):
    """(start, end, tokens) of every whitespace-separated field of raw[:end]."""
    return [(m.start(), m.end(), TOKENS) for m in re.finditer(rb"\S+", raw[:end])]


def _spkt_fields(raw):
    """(start, end, values) of every header field of an SPKT container: the
    version, the tensor count, and each tensor's name length, name, rank,
    dims and dtype tag."""
    fields = [(4, 8, _packed(4)), (8, 12, _packed(4))]
    pos, (count,) = 12, struct.unpack_from("<I", raw, 8)
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, pos)
        fields.append((pos, pos + 4, _packed(4)))
        fields.append((pos + 4, pos + 4 + name_len, st.binary(max_size=12)))
        pos += 4 + name_len
        (rank,) = struct.unpack_from("<I", raw, pos)
        dims = struct.unpack_from(f"<{rank}Q", raw, pos + 4)
        fields.append((pos, pos + 4, _packed(4)))
        fields += [(pos + 4 + 8 * k, pos + 12 + 8 * k, _packed(8)) for k in range(rank)]
        pos += 4 + 8 * rank
        fields.append((pos, pos + 1, _packed(1)))
        pos += 1 + math.prod(dims) * (4 if raw[pos] == 1 else 8)
    return fields


@st.composite
def damaged(draw, raw, fields, head=64):
    """`raw` with one kind of damage: a few bytes overwritten (most in its
    first `head` bytes, where the headers are), cut short, or one of
    `fields` replaced."""
    action = draw(st.sampled_from(["bytes", "cut", "field", "field"]))
    if action == "cut":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if action == "bytes":
        data = bytearray(raw)
        positions = st.integers(0, min(head, len(raw)) - 1) | st.integers(0, len(raw) - 1)
        for _ in range(draw(st.integers(1, 3))):
            data[draw(positions)] = draw(st.integers(0, 255))
        return bytes(data)
    start, end, values = draw(st.sampled_from(fields))
    return raw[:start] + draw(values) + raw[end:]


def _checkpoint_with_meta(raw, text):
    """`raw`, the saved checkpoint, with its metadata entry holding `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.spkt"
        path.write_bytes(raw)
        tensors, _ = load_tensors(path)
        tensors[META_KEY] = np.frombuffer(text.encode(), np.uint8).astype(np.float32)
        save_tensors(path, tensors)
        return path.read_bytes()


@pytest.fixture(scope="module")
def checkpoint(inputs):
    """The saved checkpoint's bytes and header fields."""
    raw = (inputs / "checkpoint.spkt").read_bytes()
    return raw, _spkt_fields(raw)


@pytest.fixture(scope="module")
def frame(inputs):
    """A simulated ground-truth frame's bytes and header fields."""
    raw = (inputs / "sim" / "gt_0001.pgm").read_bytes()
    return raw, _text_fields(raw, re.match(rb"(\S+\s+){4}", raw).end())


@FUZZ
@given(raw=damaged(EVENTS, _text_fields(EVENTS), head=len(EVENTS)))
@example(raw=EVENTS.replace(b"0.031", b"1001"))  # 100,100 windows, just over the bound
def test_event_text(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.txt"
        path.write_bytes(raw)
        assert_clean(run_cli("voxelize", "--events", path, "--out", Path(tmp) / "grids.spkt",
                             "--height", 16, "--width", 16, "--window-ms", 10, "--bins", 3))


@FUZZ
@given(data=st.data())
def test_spkt_checkpoint(inputs, checkpoint, data):
    raw, fields = checkpoint
    raw = data.draw(damaged(raw, fields) | mutated(SPEC).map(
        lambda text: _checkpoint_with_meta(raw, f'{{"spec": {text}}}')))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "checkpoint.spkt", Path(tmp) / "out"
        path.write_bytes(raw)
        proc = run_cli("reconstruct", "--checkpoint", path,
                       "--events", inputs / "sim" / "events.txt", "--out", out,
                       "--window-ms", 10, "--bins", 1)
        assert_clean(proc)
        assert proc.returncode == 0 or not out.exists()  # a rejected input makes no --out


@FUZZ
@given(data=st.data())
def test_pgm_ground_truth(inputs, frame, data):
    raw = data.draw(damaged(*frame))
    with tempfile.TemporaryDirectory() as tmp:
        gt = Path(tmp) / "gt"
        gt.mkdir()
        (gt / "gt_0000.pgm").write_bytes(raw)
        out = Path(tmp) / "out"
        proc = run_cli("probe", "--checkpoint", inputs / "checkpoint.spkt",
                       "--events", inputs / "sim" / "events.txt", "--cutoff", 2,
                       "--gt", gt, "--out", out, "--window-ms", 10, "--bins", 1)
        assert_clean(proc)
        assert proc.returncode == 0 or not out.exists()  # a rejected input makes no --out
