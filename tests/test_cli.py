import argparse
import csv
import json

import numpy as np
import pytest

from evrecon import cli, quality
from evrecon.checkpoint import load_tensors
from evrecon.cli import main, read_pgm, write_pgm
from evrecon.errors import ParseError, config_from_dict
from evrecon.model import Network, NetworkSpec
from evrecon.synthetic import SceneConfig, SyntheticScene
from evrecon.training import scene_to_bins

SIM_CONFIG = {"height": 16, "width": 16, "steps": 6, "contrast": 0.1}


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """A small simulated scene shared by the pipeline tests."""
    out = tmp_path_factory.mktemp("sim")
    cfg = out / "scene.json"
    cfg.write_text(json.dumps(SIM_CONFIG))
    assert main(["--seed", "5", "simulate", "--config", str(cfg),
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, sim_dir):
    """A checkpoint produced by a short training run on the scene."""
    out = tmp_path_factory.mktemp("run")
    spec = out / "spec.json"
    spec.write_text(json.dumps({"height": 16, "width": 16, "n_channels": 4,
                                "n_encoders": 2, "n_residual": 1}))
    tc = out / "train.json"
    tc.write_text(json.dumps({"batch": 1, "seq_len": 5, "epochs": 1}))
    assert main(["train", "--spec", str(spec), "--data", str(sim_dir),
                 "--train-config", str(tc), "--out", str(out)]) == 0
    return out


class TestPGM:
    def test_roundtrip(self, tmp_path):
        img = np.linspace(0, 1, 64).reshape(8, 8)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        np.testing.assert_allclose(back, img, atol=1 / 255.0 + 1e-12)

    def test_clipping(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(read_pgm(path), [[0.0, 1.0]])

    def test_scales_by_the_files_maxval(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n3 1\n15\n" + bytes([0, 5, 15]))
        np.testing.assert_array_equal(read_pgm(path), [[0.0, 5 / 15, 1.0]])

    @pytest.mark.parametrize("raw", [
        pytest.param(b"P5\n4 4\n255\nab", id="payload-cut-short"),
        pytest.param(b"P5\n4 x\n255\n" + bytes(16), id="non-integer-size"),
        pytest.param(b"P5\n4 4\n", id="no-maxval"),
        pytest.param(b"P5\n2 1\n65535\n" + bytes(4), id="16-bit-maxval"),
        pytest.param(b"P5\n2 1\n0\n" + bytes(2), id="maxval-0"),
        pytest.param(b"P5\n0 4\n255\n", id="empty-image"),
        pytest.param(b"P5\n2 1\n15\n" + bytes([0, 16]), id="sample-above-maxval"),
        pytest.param(b"P2\n2 1\n255\n0 0\n", id="plain-pgm"),
    ])
    def test_malformed_file_is_a_parse_error(self, tmp_path, raw):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(ParseError, match="bad.pgm"):
            read_pgm(path)


class TestSimulate:
    def test_outputs(self, sim_dir):
        assert (sim_dir / "events.txt").exists()
        assert (sim_dir / "meta.json").exists()
        assert len(list(sim_dir.glob("gt_*.pgm"))) == 6

    def test_events_parse_back(self, sim_dir):
        from evrecon.events import load_events
        events, sensor = load_events(sim_dir / "events.txt")
        assert sensor == (16, 16)
        assert len(events) > 0

    def test_deterministic_given_seed(self, sim_dir, tmp_path):
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(SIM_CONFIG))
        main(["--seed", "5", "simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert (tmp_path / "events.txt").read_text() == \
            (sim_dir / "events.txt").read_text()

    @pytest.mark.parametrize("config,field", [
        pytest.param({"height": "32"}, "height", id="wrong-type"),
        pytest.param({"motion": [1]}, "motion", id="short-motion"),
        pytest.param({"motion": [1, 0.5]}, "motion", id="fractional-motion"),
        pytest.param({"max_shift": -1}, "max_shift", id="negative-max-shift"),
        pytest.param({"height": 0}, "height", id="zero-height"),
        pytest.param({"steps": 0}, "steps", id="zero-steps"),
        pytest.param({"contrast": 0.0}, "contrast", id="zero-contrast"),
        pytest.param({"hieght": 16}, "hieght", id="unknown-key"),
        pytest.param([1, 2], "JSON object", id="not-an-object"),
    ])
    def test_bad_config_names_the_file_and_field(self, tmp_path, capsys, config, field):
        # raw TypeError/ValueError/AttributeError tracebacks, a typo silently
        # ignored, or a scene of 0 events before
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and field in err

    def test_constant_motion(self, tmp_path):
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps({"height": 8, "width": 8, "steps": 4, "motion": [1, -1]}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["trajectory"] == [[1, -1]] * 3

    def test_meta_is_the_drawn_scene(self, sim_dir):
        # meta.json also held the size, step count and flows, all derived
        # from texture and trajectory, and a seed that nothing read
        meta = json.loads((sim_dir / "meta.json").read_text())
        assert sorted(meta) == ["contrast", "dt", "texture", "trajectory"]
        loaded = config_from_dict(SyntheticScene, meta, "meta.json")
        drawn = SceneConfig(**SIM_CONFIG).scene(np.random.default_rng(5))
        assert loaded.texture.dtype == drawn.texture.dtype
        assert loaded.texture.tobytes() == drawn.texture.tobytes()
        assert loaded.trajectory == drawn.trajectory
        assert (loaded.contrast, loaded.dt) == (drawn.contrast, drawn.dt)


class TestVoxelize:
    def test_grid_dump(self, sim_dir, tmp_path):
        out = tmp_path / "grids.spkt"
        assert main(["voxelize", "--events", str(sim_dir / "events.txt"),
                     "--out", str(out), "--bins", "3", "--window-count", "40"]) == 0
        tensors, meta = load_tensors(out)
        assert meta["bins"] == 3 and meta["height"] == 16
        assert all(t.shape == (3, 16, 16) for t in tensors.values())
        assert len(meta["spans"]) == len(tensors)

    def test_missing_window_mode_fails(self, sim_dir, tmp_path, capsys):
        rc = main(["voxelize", "--events", str(sim_dir / "events.txt"),
                   "--out", str(tmp_path / "g.spkt")])
        assert rc == 1
        assert "window" in capsys.readouterr().err

    def test_both_window_modes_fail(self, sim_dir, tmp_path, capsys):
        # --window-ms won and --window-count was silently ignored before
        with pytest.raises(SystemExit) as exc:
            main(["voxelize", "--events", str(sim_dir / "events.txt"),
                  "--out", str(tmp_path / "g.spkt"), "--window-ms", "100",
                  "--window-count", "1"])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert "--window-ms" in last and "--window-count" in last
        assert not (tmp_path / "g.spkt").exists()

    @pytest.mark.parametrize("window_ms", ["nan", "inf", "0", "-5"])
    def test_window_ms_must_be_positive_and_finite(self, sim_dir, tmp_path, capsys, window_ms):
        # nan escaped as a raw ValueError traceback before
        rc = main(["voxelize", "--events", str(sim_dir / "events.txt"),
                   "--out", str(tmp_path / "g.spkt"), "--window-ms", window_ms])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: window duration must be positive and finite")

    def test_non_utf8_event_file_fails(self, tmp_path, capsys):
        events = tmp_path / "events.txt"
        events.write_bytes(b"# 4 4\n0.1 1 1 1\n0.2 1 1 \xe9\n")
        rc = main(["voxelize", "--events", str(events), "--out", str(tmp_path / "g.spkt"),
                   "--window-count", "10"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "events.txt: line 3: not UTF-8" in err

    def test_missing_event_file_fails(self, tmp_path, capsys):
        # a raw FileNotFoundError traceback before
        missing = tmp_path / "missing.txt"
        rc = main(["voxelize", "--events", str(missing), "--out", str(tmp_path / "g.spkt"),
                   "--window-count", "10"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"

    def test_oversized_header_fails(self, tmp_path, capsys):
        # voxelizing used to die in np.zeros with a raw ValueError
        events = tmp_path / "events.txt"
        events.write_text("# 99999999999 99999999999\n0.1 1 1 1\n")
        rc = main(["voxelize", "--events", str(events), "--out", str(tmp_path / "g.spkt"),
                   "--window-count", "10"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "events.txt: line 1: sensor side" in err

    @pytest.mark.parametrize("size,message", [
        (("-5", "4"), "sensor size must be positive, got -5 x 4"),
        (("100000000", "100000000"), "sensor side must be at most 65535, got "
                                     "100000000 x 100000000"),
    ])
    def test_flag_sensor_size_follows_the_header_rule(self, tmp_path, capsys, size, message):
        # raw ValueError and MemoryError tracebacks before
        events = tmp_path / "events.txt"
        events.write_text("0.1 1 1 1\n")
        rc = main(["voxelize", "--events", str(events), "--out", str(tmp_path / "g.spkt"),
                   "--window-count", "10", "--height", size[0], "--width", size[1]])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_out_of_memory_fails(self, tmp_path, capsys):
        # 10**13 bins of 100 x 100 need 711 PiB, more than any address space,
        # so numpy refuses before allocating
        events = tmp_path / "events.txt"
        events.write_text("# 100 100\n0.1 1 1 1\n")
        rc = main(["voxelize", "--events", str(events), "--out", str(tmp_path / "g.spkt"),
                   "--window-count", "10", "--bins", str(10 ** 13)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: out of memory: ")

    @pytest.mark.parametrize("bins,size", [
        (10 ** 20, ("100", "100")),           # numpy: maximum allowed dimension exceeded
        (10 ** 10, ("65535", "65535")),       # numpy: array is too big
    ])
    def test_grid_numpy_cannot_size_fails(self, tmp_path, capsys, bins, size):
        # raw ValueError tracebacks before; both sizes are refused before
        # anything is allocated
        events = tmp_path / "events.txt"
        events.write_text("0.1 1 1 1\n")
        rc = main(["voxelize", "--events", str(events), "--out", str(tmp_path / "g.spkt"),
                   "--window-count", "10", "--bins", str(bins),
                   "--height", size[0], "--width", size[1]])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: bin count {bins} is too large for a "
                                           f"{size[0]}x{size[1]} grid\n")

    def test_window_count_is_bounded(self, tmp_path, capsys):
        # 10 ms windows over events at t = 0 and 1e6 s: the stream used to
        # be cut into 1e8 windows one by one, and voxelize hung
        events = tmp_path / "events.txt"
        events.write_text("# 4 4\n0.0 1 1 1\n1000000.0 2 2 0\n")
        rc = main(["voxelize", "--events", str(events), "--out", str(tmp_path / "g.spkt"),
                   "--window-ms", "10"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: window duration 0.01 s cuts the stream's span, 0.0 to 1000000.0 s, "
            "into more than 100000 windows\n")
        assert not (tmp_path / "g.spkt").exists()


class TestTrain:
    def test_checkpoint_and_metrics(self, trained_dir):
        assert (trained_dir / "checkpoint.spkt").exists()
        with open(trained_dir / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["loss"]) > 0

    def test_checkpoint_loads(self, trained_dir):
        net = Network.load(trained_dir / "checkpoint.spkt")
        assert net.spec.height == 16

    def test_zero_epochs_saves_untrained(self, sim_dir, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 16, "width": 16, "n_channels": 4,
                                    "n_encoders": 2, "n_residual": 1}))
        assert main(["train", "--spec", str(spec), "--data", str(sim_dir),
                     "--epochs", "0", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "checkpoint.spkt").exists()
        assert (tmp_path / "metrics.csv").read_text().split() == [
            "epoch,loss,mse,ssim,spike_rate"]

    def test_zero_epochs_flag_and_config_agree(self, sim_dir, tmp_path):
        # "epochs": 0 in train.json failed with "epochs must be positive" before
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 16, "width": 16, "n_channels": 4,
                                    "n_encoders": 2, "n_residual": 1}))
        tc = tmp_path / "train.json"
        tc.write_text(json.dumps({"epochs": 0}))
        assert main(["train", "--spec", str(spec), "--data", str(sim_dir),
                     "--epochs", "0", "--out", str(tmp_path / "flag")]) == 0
        assert main(["train", "--spec", str(spec), "--data", str(sim_dir),
                     "--train-config", str(tc), "--out", str(tmp_path / "config")]) == 0
        for name in ("checkpoint.spkt", "metrics.csv"):
            assert ((tmp_path / "flag" / name).read_bytes()
                    == (tmp_path / "config" / name).read_bytes())

    def test_zero_batch_names_the_file_and_field(self, sim_dir, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 16, "width": 16}))
        tc = tmp_path / "train.json"
        tc.write_text(json.dumps({"batch": 0}))
        assert main(["train", "--spec", str(spec), "--data", str(sim_dir),
                     "--train-config", str(tc), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {tc}: TrainConfig.batch must be >= 1, got 0")

    def test_unknown_spec_key_is_an_error(self, sim_dir, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 16, "width": 16, "chanels": 4}))
        assert main(["train", "--spec", str(spec), "--data", str(sim_dir),
                     "--epochs", "0", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "chanels" in err

    def test_unknown_train_key_is_an_error(self, sim_dir, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 16, "width": 16}))
        tc = tmp_path / "train.json"
        tc.write_text(json.dumps({"epochz": 1}))
        assert main(["train", "--spec", str(spec), "--data", str(sim_dir),
                     "--train-config", str(tc), "--out", str(tmp_path)]) == 1
        assert "epochz" in capsys.readouterr().err


    @pytest.mark.parametrize("edit,field", [
        pytest.param(lambda m: m.pop("texture"), "texture", id="missing-texture"),
        pytest.param(lambda m: m.update(texture=[0.5] * 16), "texture", id="texture-size"),
        pytest.param(lambda m: m.update(texture=[["0.5"] * 16] * 16), "texture",
                     id="texture-not-numbers"),
        pytest.param(lambda m: m.update(texture=[[0.5] * 16] * 15 + [[0.5]]), "texture",
                     id="texture-ragged"),
        pytest.param(lambda m: m["texture"][0].__setitem__(0, 2.0), "texture",
                     id="texture-above-1"),
        pytest.param(lambda m: m.update(dt="0.01"), "dt", id="wrong-type"),
        pytest.param(lambda m: m.update(dt=0.0), "dt", id="zero-dt"),
        pytest.param(lambda m: m.update(trajectory=[]), "trajectory", id="short-trajectory"),
        pytest.param(lambda m: m["trajectory"].__setitem__(0, [1]), "trajectory",
                     id="bad-shift"),
        pytest.param(lambda m: m.update(extra=1), "extra", id="unknown-key"),
        # the format of older versions: simulate such a directory again
        pytest.param(lambda m: m.update(height=16, width=16, steps=6, seed=5,
                                        flows=[[0, 0]] + m["trajectory"]),
                     "unknown SyntheticScene key(s): flows, height, seed, steps, width",
                     id="older-format"),
    ])
    def test_bad_meta_names_the_file_and_field(self, sim_dir, tmp_path, capsys, edit, field):
        # a raw KeyError for a missing texture before
        data = tmp_path / "data"
        data.mkdir()
        meta = json.loads((sim_dir / "meta.json").read_text())
        edit(meta)
        (data / "meta.json").write_text(json.dumps(meta))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 16, "width": 16}))
        assert main(["train", "--spec", str(spec), "--data", str(data),
                     "--epochs", "0", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data / 'meta.json'}: ") and field in err

    @pytest.mark.parametrize("text,field", [
        ('{"height": 16, "width": 16, "tau": NaN}', "NetworkSpec.tau must be finite"),
        ('{"height": 16, "width": 16, "v_th": NaN}', "NetworkSpec.v_th must be finite"),
        ('{"height": 16, "width": 16, "v_reset": NaN}', "NetworkSpec.v_reset must be finite"),
        ('{"height": 16, "width": 16, "tau": Infinity}', "NetworkSpec.tau must be finite"),
        ('{"height": 16, "width": 16, "tau": 0.5}', "NetworkSpec.tau must be > 1 for LIF"),
    ])
    def test_bad_neuron_value_in_spec_names_the_file_and_field(self, sim_dir, tmp_path, capsys,
                                                              text, field):
        # accepted before: NaN or inf gave all-zero reconstructions, and tau 0.5
        # failed only when the network was built, naming neither file nor field
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        assert main(["train", "--spec", str(spec), "--data", str(sim_dir),
                     "--epochs", "0", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {spec}: {field}")

    @pytest.mark.parametrize("text,field", [
        ('{"lr": NaN}', "lr"), ('{"lr": Infinity}', "lr"),
        ('{"lambda_tc": NaN}', "lambda_tc"), ('{"lambda_tc": -Infinity}', "lambda_tc")])
    def test_non_finite_train_value_names_the_file_and_field(self, sim_dir, tmp_path, capsys,
                                                            text, field):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 16, "width": 16}))
        tc = tmp_path / "train.json"
        tc.write_text(text)
        assert main(["train", "--spec", str(spec), "--data", str(sim_dir),
                     "--train-config", str(tc), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {tc}: TrainConfig.{field} must be finite")

    def test_seed_in_train_config_is_unknown(self, sim_dir, tmp_path, capsys):
        # `--seed` sets the seed; a "seed" in train.json was silently ignored
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 16, "width": 16}))
        tc = tmp_path / "train.json"
        tc.write_text(json.dumps({"seed": 3}))
        assert main(["train", "--spec", str(spec), "--data", str(sim_dir),
                     "--train-config", str(tc), "--out", str(tmp_path)]) == 1
        assert "unknown TrainConfig key(s): seed" in capsys.readouterr().err

    def test_negative_epochs_is_an_argument_error(self, sim_dir, tmp_path, capsys):
        # accepted before: it saved an untrained checkpoint and a header-only metrics.csv
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 16, "width": 16}))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--spec", str(spec), "--data", str(sim_dir),
                  "--epochs", "-3", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: argument --epochs: expected an integer >= 0, got '-3'")
        assert not (tmp_path / "o").exists()


class TestReconstruct:
    def test_writes_frames(self, sim_dir, trained_dir, tmp_path):
        assert main(["reconstruct",
                     "--checkpoint", str(trained_dir / "checkpoint.spkt"),
                     "--events", str(sim_dir / "events.txt"),
                     "--out", str(tmp_path), "--bins", "1",
                     "--window-ms", "10"]) == 0
        frames = sorted(tmp_path.glob("recon_*.pgm"))
        assert len(frames) >= 1
        img = read_pgm(frames[0])
        assert img.shape == (16, 16)
        assert 0.0 <= img.min() and img.max() <= 1.0

    @pytest.mark.parametrize("bins", [1, 3, 5])
    def test_inference_bins_equal_the_training_bins(self, sim_dir, bins):
        # the 10 ms windows used to start at the first event, 0.0002 s, and
        # not at the frame edges the network is trained on; and the file kept
        # 9 decimals of t, which moved the bins of --bins > 1 by up to 3e-7
        meta = sim_dir / "meta.json"
        scene = config_from_dict(SyntheticScene, json.loads(meta.read_text()), meta)
        args = argparse.Namespace(events=sim_dir / "events.txt", bins=bins, window_ms=10.0,
                                  window_count=None)
        got = cli._network_bins(args, NetworkSpec(height=16, width=16))
        want, _, _ = scene_to_bins(scene, bins)
        assert len(got) == len(want) == bins * (SIM_CONFIG["steps"] - 1)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_missing_checkpoint_fails(self, sim_dir, tmp_path, capsys):
        missing = tmp_path / "missing.spkt"
        rc = main(["reconstruct", "--checkpoint", str(missing),
                   "--events", str(sim_dir / "events.txt"),
                   "--out", str(tmp_path), "--window-ms", "10"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


class TestProbe:
    def test_probe_csv(self, sim_dir, trained_dir, tmp_path):
        assert main(["probe",
                     "--checkpoint", str(trained_dir / "checkpoint.spkt"),
                     "--events", str(sim_dir / "events.txt"),
                     "--cutoff", "2", "--gt", str(sim_dir),
                     "--out", str(tmp_path), "--bins", "1",
                     "--window-ms", "10"]) == 0
        with open(tmp_path / "probe.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        flags = [int(r["after_cutoff"]) for r in rows]
        assert flags[:2] == [0, 0] and all(f == 1 for f in flags[2:])
        for r in rows:
            assert 0.0 <= float(r["spike_rate"]) <= 1.0

    def test_sub_bins_are_scored_against_their_windows_frame(self, sim_dir, trained_dir,
                                                               tmp_path):
        # bin i was scored against frame i + 1, not that of its window i // bins
        events = sim_dir / "events.txt"
        assert main(["probe", "--checkpoint", str(trained_dir / "checkpoint.spkt"),
                     "--events", str(events), "--cutoff", "100", "--gt", str(sim_dir),
                     "--out", str(tmp_path), "--bins", "2", "--window-ms", "10"]) == 0
        with open(tmp_path / "probe.csv") as fh:
            rows = list(csv.DictReader(fh))
        net = Network.load(trained_dir / "checkpoint.spkt")
        args = argparse.Namespace(events=events, bins=2, window_ms=10.0, window_count=None)
        images = net.forward_sequence(cli._network_bins(args, net.spec))
        frames = [read_pgm(p) for p in sorted(sim_dir.glob("gt_*.pgm"))]
        assert len(rows) == len(images) >= 4
        for i, (row, img) in enumerate(zip(rows, images)):
            mse, ssim = quality.score(img, frames[i // 2 + 1])
            assert (float(row["mse"]), float(row["ssim"])) == (mse, ssim)

    def test_a_static_first_interval_shifts_every_frame(self, sim_dir, trained_dir, tmp_path):
        # with no event in (0, 10] ms the cut starts at window 2, and its bins
        # were scored against gt_0001 and on, one frame early
        events = tmp_path / "events.txt"
        lines = (sim_dir / "events.txt").read_text().splitlines()
        events.write_text("\n".join(
            line for line in lines if line.startswith("#") or float(line.split()[0]) > 0.01))
        assert main(["probe", "--checkpoint", str(trained_dir / "checkpoint.spkt"),
                     "--events", str(events), "--cutoff", "100", "--gt", str(sim_dir),
                     "--out", str(tmp_path), "--bins", "1", "--window-ms", "10"]) == 0
        with open(tmp_path / "probe.csv") as fh:
            rows = list(csv.DictReader(fh))
        net = Network.load(trained_dir / "checkpoint.spkt")
        args = argparse.Namespace(events=events, bins=1, window_ms=10.0, window_count=None)
        images = net.forward_sequence(cli._network_bins(args, net.spec))
        frames = [read_pgm(p) for p in sorted(sim_dir.glob("gt_*.pgm"))]
        assert len(rows) == len(images) == SIM_CONFIG["steps"] - 2
        for i, (row, img) in enumerate(zip(rows, images)):
            mse, ssim = quality.score(img, frames[i + 2])
            assert (float(row["mse"]), float(row["ssim"])) == (mse, ssim)

    def test_missing_frame_names_the_directory(self, sim_dir, trained_dir, tmp_path, capsys):
        # the last frame was reused for every window past it
        gt = tmp_path / "gt"
        gt.mkdir()
        for i in range(3):
            (gt / f"gt_{i:04d}.pgm").write_bytes((sim_dir / f"gt_{i:04d}.pgm").read_bytes())
        rc = main(["probe", "--checkpoint", str(trained_dir / "checkpoint.spkt"),
                   "--events", str(sim_dir / "events.txt"), "--cutoff", "2",
                   "--gt", str(gt), "--out", str(tmp_path), "--bins", "1",
                   "--window-ms", "10"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {gt}: no gt_0003.pgm to score its window against\n")
        assert not (tmp_path / "probe.csv").exists()

    def test_frame_of_another_size_names_the_file(self, sim_dir, trained_dir, tmp_path,
                                                  capsys):
        # ended in "mse shape mismatch: (16, 16) vs (16, 4)"
        gt = tmp_path / "gt"
        gt.mkdir()
        write_pgm(gt / "gt_0001.pgm", np.zeros((16, 4)))
        rc = main(["probe", "--checkpoint", str(trained_dir / "checkpoint.spkt"),
                   "--events", str(sim_dir / "events.txt"), "--cutoff", "2",
                   "--gt", str(gt), "--out", str(tmp_path), "--bins", "1",
                   "--window-ms", "10"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {gt / 'gt_0001.pgm'}: frame is 16x4, the network reconstructs 16x16\n")

    def test_ground_truth_needs_windows_by_time(self, sim_dir, trained_dir, tmp_path, capsys):
        rc = main(["probe", "--checkpoint", str(trained_dir / "checkpoint.spkt"),
                   "--events", str(sim_dir / "events.txt"), "--cutoff", "2",
                   "--gt", str(sim_dir), "--out", str(tmp_path / "o"), "--bins", "1",
                   "--window-count", "50"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: probe --gt scores each window against the frame at its end, "
            "so it takes --window-ms, not --window-count\n")
        assert not (tmp_path / "o").exists()

    def test_bad_ground_truth_frame_names_the_file(self, sim_dir, trained_dir,
                                                   tmp_path, capsys):
        gt = tmp_path / "gt"
        gt.mkdir()
        (gt / "gt_0000.pgm").write_bytes(b"P5\n4 4\n255\nab")
        rc = main(["probe", "--checkpoint", str(trained_dir / "checkpoint.spkt"),
                   "--events", str(sim_dir / "events.txt"), "--cutoff", "2",
                   "--gt", str(gt), "--out", str(tmp_path), "--bins", "1",
                   "--window-ms", "10"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "gt_0000.pgm" in err

    def test_ground_truth_directory_without_frames_fails(self, sim_dir, trained_dir,
                                                         tmp_path, capsys):
        # empty mse/ssim columns were written silently before
        gt = tmp_path / "gt"
        gt.mkdir()
        rc = main(["probe", "--checkpoint", str(trained_dir / "checkpoint.spkt"),
                   "--events", str(sim_dir / "events.txt"), "--cutoff", "2",
                   "--gt", str(gt), "--out", str(tmp_path), "--bins", "1",
                   "--window-ms", "10"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {gt}: no gt_*.pgm files to score against\n"
        assert not (tmp_path / "probe.csv").exists()

    def test_negative_cutoff_is_an_argument_error(self, sim_dir, trained_dir, tmp_path,
                                                  capsys):
        # accepted before: every bin was zeroed and every row marked after_cutoff
        with pytest.raises(SystemExit) as exc:
            main(["probe", "--checkpoint", str(trained_dir / "checkpoint.spkt"),
                  "--events", str(sim_dir / "events.txt"), "--cutoff", "-1",
                  "--out", str(tmp_path / "o"), "--bins", "1", "--window-ms", "10"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: argument --cutoff: expected an integer >= 0, got '-1'")
        assert not (tmp_path / "o").exists()


class TestProfile:
    def test_paper_rates_evsnn(self, capsys):
        assert main(["profile", "--paper-rates", "evsnn"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["energy_joules"] == pytest.approx(3.83e-3, rel=0.005)
        assert data["ann_snn_ratio"] == pytest.approx(19.36, rel=0.005)

    def test_paper_rates_normalized_energy(self, capsys):
        main(["profile", "--paper-rates", "evsnn"])
        evsnn = json.loads(capsys.readouterr().out)
        main(["profile", "--paper-rates", "pa-evsnn"])
        pa = json.loads(capsys.readouterr().out)
        assert evsnn["normalized_energy"] == pytest.approx(0.0415, rel=0.01)
        assert pa["normalized_energy"] == pytest.approx(0.1142, rel=0.01)

    def test_unknown_spec_key_is_an_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 16, "width": 16, "chanels": 4}))
        assert main(["profile", "--spec", str(spec)]) == 1
        assert "chanels" in capsys.readouterr().err

    def test_wrong_spec_type_is_an_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 16, "width": "16"}))
        assert main(["profile", "--spec", str(spec)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "width" in err

    def test_oversized_spec_names_the_field(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 16, "width": 16, "n_residual": 2**70}))
        assert main(["profile", "--spec", str(spec)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "NetworkSpec.n_residual" in err

    def test_huge_encoder_count_names_the_field(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 16, "width": 16, "n_encoders": 2**70}))
        assert main(["profile", "--spec", str(spec)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "NetworkSpec.n_encoders" in err

    @pytest.mark.parametrize("field,value", [("skip_kind", "XOR"), ("neuron_kind", "AMP_LIF")])
    def test_unknown_choice_names_the_field(self, tmp_path, capsys, field, value):
        # "unknown skip kind 'XOR'" and "backbone neuron must be IF/LIF/PLIF"
        # named no field before
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 16, "width": 16, field: value}))
        assert main(["profile", "--spec", str(spec)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {spec}: NetworkSpec.{field} must be one of ")

    def test_spec_without_events_builds_no_network(self, tmp_path, capsys, monkeypatch):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 16, "width": 16, "n_channels": 4,
                                    "n_encoders": 2, "n_residual": 1}))
        assert main(["profile", "--spec", str(spec)]) == 0
        report = capsys.readouterr().out

        def no_network(*args, **kwargs):
            raise AssertionError("profile --spec without --events built a Network")

        monkeypatch.setattr(cli, "Network", no_network)
        assert main(["profile", "--spec", str(spec)]) == 0
        assert capsys.readouterr().out == report

    def test_unknown_operating_point(self, capsys):
        assert main(["profile", "--paper-rates", "nope"]) == 1
        assert "operating point" in capsys.readouterr().err

    def test_spec_with_events(self, sim_dir, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 16, "width": 16, "n_channels": 4,
                                    "n_encoders": 2, "n_residual": 1}))
        assert main(["profile", "--spec", str(spec),
                     "--events", str(sim_dir / "events.txt"),
                     "--bins", "1", "--window-ms", "10",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "total" in out
        report = json.loads((tmp_path / "energy.json").read_text())
        assert report["total_joules"] > 0


class TestGradcheck:
    def test_all_pass(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "lif_3step_surrogate" in out
        assert "upsample_conv" in out
        assert "conv_stride2" in out and "conv_narrow" in out
        assert "batch_norm_train" in out and "plif_3step" in out


class TestSeed:
    @pytest.mark.parametrize("command", ["simulate", "train", "profile", "gradcheck"])
    def test_negative_seed_is_an_argument_error(self, sim_dir, tmp_path, capsys, command):
        # np.random.default_rng ended each in a raw ValueError traceback before
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 16, "width": 16}))
        out = str(tmp_path / "o")
        flags = {"simulate": ["--out", out],
                 "train": ["--spec", str(spec), "--data", str(sim_dir), "--epochs", "0",
                           "--out", out],
                 "profile": ["--spec", str(spec)],
                 "gradcheck": []}[command]
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "-1", command] + flags)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: argument --seed: expected an integer >= 0, got '-1'")
        assert not (tmp_path / "o").exists()
