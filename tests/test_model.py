import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from evrecon import autodiff as ad
from evrecon import checkpoint
from evrecon.autodiff import Tensor
from evrecon.energy import count_ann_ops
from evrecon.errors import ConfigError, ContractError, ParseError, ShapeError, config_from_dict
from evrecon.model import Network, NetworkSpec, skip_connect, spike_rate, stage_table
from evrecon.neurons import MPLayer, SpikingLayer

FIXTURES = Path(__file__).parent / "fixtures"


def tiny_spec(**kw):
    base = dict(height=16, width=16, n_channels=4, n_encoders=2, n_residual=1)
    base.update(kw)
    return NetworkSpec(**base)


class TestSkipConnect:
    A = np.array([0.0, 0.0, 1.0, 1.0])
    B = np.array([0.0, 1.0, 0.0, 1.0])

    def test_add(self):
        out = skip_connect("ADD", Tensor(self.A), Tensor(self.B))
        np.testing.assert_array_equal(out.data, [0, 1, 1, 2])

    def test_or_truth_table(self):
        out = skip_connect("OR", Tensor(self.A), Tensor(self.B))
        np.testing.assert_array_equal(out.data, [0, 1, 1, 1])

    def test_iand_truth_table(self):
        # IAND(a, b) = (NOT a) AND b
        out = skip_connect("IAND", Tensor(self.A), Tensor(self.B))
        np.testing.assert_array_equal(out.data, [0, 1, 0, 0])

    def test_concat_doubles_channels(self):
        a = Tensor(np.zeros((1, 3, 2, 2)))
        b = Tensor(np.ones((1, 3, 2, 2)))
        out = skip_connect("CONCAT", a, b)
        assert out.shape == (1, 6, 2, 2)
        np.testing.assert_array_equal(out.data[:, :3], 0.0)
        np.testing.assert_array_equal(out.data[:, 3:], 1.0)

    def test_binary_inputs_stay_binary_for_or_iand(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            a = Tensor((rng.random(16) > 0.5).astype(float))
            b = Tensor((rng.random(16) > 0.5).astype(float))
            for kind in ("OR", "IAND"):
                vals = np.unique(skip_connect(kind, a, b).data)
                assert set(vals) <= {0.0, 1.0}

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            skip_connect("XOR", Tensor(self.A), Tensor(self.B))


class TestSpec:
    def test_defaults(self):
        spec = NetworkSpec(height=180, width=240)
        assert spec.n_channels == 32
        assert spec.n_encoders == 3
        assert spec.skip_kind == "CONCAT"

    def test_padded_size_rounds_up_to_stride_multiple(self):
        spec = NetworkSpec(height=180, width=240)
        assert spec.padded_size() == (184, 240)
        spec = NetworkSpec(height=64, width=64)
        assert spec.padded_size() == (64, 64)

    def test_json_roundtrip(self):
        spec = tiny_spec(skip_kind="OR", potential_assisted=True, amp_enabled=True)
        again = config_from_dict(NetworkSpec, json.loads(json.dumps(asdict(spec))), "spec JSON")
        assert again == spec

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            NetworkSpec(height=0, width=16)
        with pytest.raises(ConfigError):
            tiny_spec(skip_kind="NAND")
        with pytest.raises(ConfigError):
            tiny_spec(n_encoders=0)
        with pytest.raises(ConfigError):
            tiny_spec(amp_enabled=True, potential_assisted=False)

    @pytest.mark.parametrize("field,value", [
        ("width", "16"), ("n_channels", True), ("n_encoders", 2.0), ("tau", "2"),
        ("skip_kind", 1), ("potential_assisted", 1), ("decoder_kernel", 5.0)])
    def test_wrong_type_names_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            tiny_spec(**{field: value})

    @pytest.mark.parametrize("k", [4, 0, -1])
    @pytest.mark.parametrize("field", ["head_kernel", "encoder_kernel", "residual_kernel",
                                       "decoder_kernel", "prediction_kernel"])
    def test_even_or_nonpositive_kernel_names_field(self, field, k):
        with pytest.raises(ConfigError, match=field):
            tiny_spec(**{field: k})

    @pytest.mark.parametrize("field,value", [
        ("n_residual", 2**70), ("n_channels", 1025), ("height", 65536), ("width", 2**40),
        ("head_kernel", 33), ("encoder_kernel", 2**70 + 1), ("residual_kernel", 33),
        ("decoder_kernel", 33), ("prediction_kernel", 33)])
    def test_oversized_value_names_field(self, field, value):
        # "n_residual": 2**70 made stage_table append rows until memory ran out
        with pytest.raises(ConfigError, match=rf"NetworkSpec\.{field} must be at most \d+, "
                                              rf"got {value}"):
            tiny_spec(**{field: value})

    def test_huge_encoder_count_is_refused_at_once(self):
        with pytest.raises(ConfigError, match="input too small"):
            tiny_spec(n_encoders=2**70)

    @pytest.mark.parametrize("kw", [dict(height=3), dict(width=2), dict(n_encoders=5)])
    def test_stride_schedule_refusal_names_its_fields(self, kw):
        v = {**dict(height=16, width=16, n_encoders=2), **kw}
        with pytest.raises(ConfigError) as info:
            tiny_spec(**kw)
        assert str(info.value).startswith(
            f"NetworkSpec.n_encoders = {v['n_encoders']} stride-2 encoders halve "
            f"NetworkSpec.height = {v['height']} x NetworkSpec.width = {v['width']} ")

    def test_int_accepted_for_float_fields(self):
        assert tiny_spec(tau=2, v_th=1).tau == 2

    @pytest.mark.parametrize("field", ["tau", "v_th", "v_reset"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_neuron_value_names_field(self, field, value):
        with pytest.raises(ConfigError, match=f"NetworkSpec.{field} must be finite"):
            tiny_spec(**{field: value})

    def test_tau_checked_for_every_neuron_the_network_builds(self):
        with pytest.raises(ConfigError, match="NetworkSpec.tau must be > 1 for LIF"):
            tiny_spec(tau=0.5)
        with pytest.raises(ConfigError, match="NetworkSpec.tau must be > 1 for MP_LIF"):
            tiny_spec(neuron_kind="IF", potential_assisted=True, tau=0.5)
        # IF and PLIF neurons and AMP potentials do not use tau
        for kw in (dict(neuron_kind="IF"), dict(neuron_kind="PLIF"),
                   dict(neuron_kind="IF", potential_assisted=True, amp_enabled=True)):
            Network(tiny_spec(tau=0.5, **kw), seed=0)


class TestGeometry:
    def test_encoder_channel_doubling(self):
        geo = {g.name: g for g in stage_table(tiny_spec(n_channels=8))}
        assert geo["head"].cout == 8
        assert geo["down1"].cout == 16
        assert geo["down2"].cout == 32

    def test_spatial_halving_and_restore(self):
        geo = {g.name: g for g in stage_table(tiny_spec())}
        assert (geo["down1"].h_out, geo["down2"].h_out) == (8, 4)
        assert geo["up2"].h_out == 16  # decoders restore full resolution

    def test_concat_doubles_decoder_cin(self):
        geo_c = {g.name: g for g in stage_table(tiny_spec(skip_kind="CONCAT"))}
        geo_a = {g.name: g for g in stage_table(tiny_spec(skip_kind="ADD"))}
        assert geo_c["up1"].cin == 2 * geo_a["up1"].cin

    def test_amp_layers_present_only_when_enabled(self):
        names_plain = {c.layer for c in count_ann_ops(tiny_spec())}
        names_amp = {c.layer for c in
                     count_ann_ops(tiny_spec(potential_assisted=True, amp_enabled=True))}
        assert not any("amp" in n for n in names_plain)
        assert "down1-amp-conv" in names_amp and "up1-amp-linear" in names_amp


class TestStageTable:
    def test_forward_order_and_names(self):
        names = [g.name for g in stage_table(tiny_spec(n_residual=2))]
        assert names == ["head", "down1", "down2", "res1-1", "res1-2",
                         "res2-1", "res2-2", "up1", "up2", "pred"]

    def test_network_is_built_from_the_table(self):
        spec = tiny_spec(potential_assisted=True, amp_enabled=True)
        net = Network(spec, seed=0)
        table = stage_table(spec)
        assert [s.geom for s in net.stages] == table
        assert [s.name for s in net.stages] == [g.name for g in table]
        assert [s.name for s in net.stages if isinstance(s.neuron, SpikingLayer)] == [
            g.name for g in table if g.name != "pred"]
        assert list(net.get_state()) == [
            "head", "down1", "down1-mp", "down2", "down2-mp", "res1-1", "res1-2",
            "up1", "up1-mp", "up2", "up2-mp", "pred"]
        for stage in net.stages:
            assert stage.w.shape == (stage.geom.cout, stage.geom.cin,
                                     stage.geom.kernel, stage.geom.kernel)
            assert stage.has_bn == (stage.name != "pred")
            if stage.name == "pred":
                assert isinstance(stage.neuron, MPLayer)
                assert stage.neuron.cfg.kind == "MP_LIF" and stage.neuron.cfg.tau == 2.0
            assert (stage.potential is not None) == stage.geom.potential
            if stage.potential is not None:
                assert stage.potential.cfg.kind == spec.potential_kind == "AMP_LIF"
                assert stage.potential.amp.conv_w.shape == (stage.geom.cout, 3, 3)

    def test_monitor_ids_are_the_spiking_layers(self):
        net = Network(tiny_spec(potential_assisted=True), seed=0)
        spike_counts = {}
        net.forward_step(np.zeros((16, 16)), spike_counts)
        assert list(spike_counts) == [s.name for s in net.stages if s.name != "pred"]

    def test_energy_rows_follow_the_table(self):
        spec = tiny_spec(potential_assisted=True, amp_enabled=True)
        table = {g.name: g for g in stage_table(spec)}
        rows = count_ann_ops(spec)
        assert [c.layer for c in rows if c.is_snn] == list(table)
        assert [c.layer for c in rows if c.is_mp] == [
            f"{name}-amp-{op}" for name in ("down1", "down2", "up1", "up2")
            for op in ("conv", "linear")]
        ops = {c.layer: c.op_ann for c in rows}
        up2 = table["up2"]
        assert (up2.h_out, up2.w_out) == (16, 16)
        # a decoder and its AMP block are priced on the upsampled grid
        assert ops["up2"] == 5 * 5 * up2.cin * 16 * 16 * up2.cout
        assert ops["up2-amp-conv"] == 3 * 3 * 16 * 16 * up2.cout
        assert ops["up2-amp-linear"] == 2 * up2.cout * up2.cout


class TestParameterCounts:
    def test_count_matches_enumeration(self):
        net = Network(tiny_spec(), seed=0)
        total = sum(int(np.prod(p.shape)) for p in net.parameters())
        assert net.num_parameters() == total

    def test_full_scale_evsnn(self):
        net = Network(NetworkSpec(height=180, width=240), seed=0)
        assert net.num_parameters() == 4_409_985

    def test_full_scale_pa_evsnn(self):
        spec = NetworkSpec(height=180, width=240, potential_assisted=True,
                           amp_enabled=True)
        net = Network(spec, seed=0)
        assert net.num_parameters() == 4_632_417


class TestForward:
    def test_output_shape_matches_input(self):
        net = Network(tiny_spec(), seed=0)
        out = net.forward_step(np.zeros((16, 16)))
        assert out.shape == (1, 1, 16, 16)

    def test_non_power_of_two_input(self):
        net = Network(NetworkSpec(height=18, width=22, n_channels=4,
                                  n_encoders=2, n_residual=1), seed=0)
        out = net.forward_step(np.zeros((18, 22)))
        assert out.shape == (1, 1, 18, 22)

    def test_if_backbone_charges_without_leak(self):
        # the head's IF neurons add their input to the potential, then reset
        net = Network(tiny_spec(neuron_kind="IF"), seed=0)
        x = np.random.default_rng(58).standard_normal((16, 16))
        u = net.stages[0].forward(Tensor(x[None, None]), False).data
        v, fired = np.zeros_like(u), []
        for _ in range(3):
            net.forward_step(x)
            v = v + u
            fired.append(v >= net.spec.v_th)
            v = np.where(fired[-1], net.spec.v_reset, v)
            np.testing.assert_array_equal(net.get_state()["head"], v)
        assert 0 < np.mean(fired) < 1

    def test_batch_input(self):
        net = Network(tiny_spec(), seed=0)
        out = net.forward_step(np.zeros((3, 1, 16, 16)))
        assert out.shape == (3, 1, 16, 16)

    def test_wrong_spatial_size_raises(self):
        net = Network(tiny_spec(), seed=0)
        with pytest.raises(ShapeError):
            net.forward_step(np.zeros((8, 8)))

    def test_stateful_across_steps(self):
        rng = np.random.default_rng(52)
        net = Network(tiny_spec(), seed=0)
        net.train_mode(True)  # batch-stat normalization keeps activations spiking
        x = rng.standard_normal((16, 16)) * 5.0
        out1 = net.forward_step(x).data.copy()
        out2 = net.forward_step(x).data.copy()
        assert np.abs(out1).sum() > 0
        assert not np.array_equal(out1, out2)

    def test_reset_state_restores_initial_output(self):
        rng = np.random.default_rng(53)
        net = Network(tiny_spec(), seed=0)
        x = rng.standard_normal((16, 16))
        out1 = net.forward_step(x).data.copy()
        net.forward_step(x)
        net.reset_state()
        out3 = net.forward_step(x).data.copy()
        np.testing.assert_array_equal(out1, out3)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(54)
        x = rng.standard_normal((16, 16))
        o1 = Network(tiny_spec(), seed=7).forward_step(x).data
        o2 = Network(tiny_spec(), seed=7).forward_step(x).data
        np.testing.assert_array_equal(o1, o2)

    def test_tally_counts_each_layers_spikes(self, monkeypatch):
        # every step's spike output, captured around SpikingLayer.step
        fired = {}
        step = SpikingLayer.step

        def recording_step(layer, x):
            spikes = step(layer, x)
            assert set(np.unique(spikes.data)) <= {0.0, 1.0}
            fired.setdefault(id(layer), []).append(spikes.data.copy())
            return spikes

        monkeypatch.setattr(SpikingLayer, "step", recording_step)
        rng = np.random.default_rng(55)
        net = Network(tiny_spec(), seed=0)
        net.train_mode(True)  # batch statistics keep the deep layers firing
        spike_counts = {}
        for _ in range(3):
            net.forward_step(rng.standard_normal((2, 1, 16, 16)) * 2, spike_counts)
        assert list(spike_counts) == [s.name for s in net.stages if s.name != "pred"]
        for stage in net.stages[:-1]:
            outputs = fired[id(stage.neuron)]
            assert len(outputs) == 3
            want = [int(sum(s.sum() for s in outputs)), sum(s.size for s in outputs)]
            assert spike_counts[stage.name] == want, stage.name
            assert all(isinstance(v, int) for v in spike_counts[stage.name])
        assert 0.0 < spike_rate(spike_counts) < 1.0

    def test_spike_rate(self):
        assert spike_rate({}) == 0.0
        assert spike_rate({"a": [1, 4], "b": [2, 8]}) == 0.25

    def test_old_monitor_keyword_fails(self):
        net = Network(tiny_spec(), seed=0)
        with pytest.raises(TypeError):
            net.forward_step(np.zeros((16, 16)), monitor={})
        with pytest.raises(TypeError):
            net.forward_sequence([np.zeros((16, 16))], monitor_list=[])

    def test_sequence_tally_is_the_sum_of_its_steps(self):
        rng = np.random.default_rng(56)
        bins = [rng.standard_normal((16, 16)) * 3 for _ in range(4)]
        net = Network(tiny_spec(), seed=0)
        net.train_mode(True)
        whole = {}
        assert len(list(net.forward_sequence(bins, whole))) == len(bins)
        assert whole  # a lazy sequence left unconsumed tallies nothing
        per_step = []
        net.reset_state()
        for plane in bins:
            per_step.append({})
            net.forward_step(plane, per_step[-1])
        assert whole == {lid: [sum(t[lid][0] for t in per_step), sum(t[lid][1] for t in per_step)]
                         for lid in per_step[0]}

    @pytest.mark.parametrize("skip_kind", ["ADD", "OR", "IAND", "CONCAT"])
    def test_all_skip_kinds_run(self, skip_kind):
        net = Network(tiny_spec(skip_kind=skip_kind), seed=0)
        out = net.forward_step(np.ones((16, 16)))
        assert out.shape == (1, 1, 16, 16)
        assert np.all(np.isfinite(out.data))

    def test_potential_assisted_forward(self):
        spec = tiny_spec(potential_assisted=True, amp_enabled=True)
        net = Network(spec, seed=0)
        out = net.forward_step(np.ones((16, 16)))
        assert out.shape == (1, 1, 16, 16)
        assert np.all(np.isfinite(out.data))

    def test_forward_sequence(self):
        net = Network(tiny_spec(), seed=0)
        bins = [np.zeros((16, 16)) for _ in range(3)]
        images = list(net.forward_sequence(bins))
        assert len(images) == 3 and images[0].shape == (16, 16)

    def test_forward_sequence_steps_once_per_frame_taken(self):
        # k frames taken run exactly k steps, with gradient recording on
        # between them; a bin past the last frame taken is never read
        rng = np.random.default_rng(3)
        bins = [rng.standard_normal((16, 16)) * 3 for _ in range(4)]
        one_step = {}
        Network(tiny_spec(), seed=0).forward_step(bins[0], one_step)
        net = Network(tiny_spec(), seed=0)
        spike_counts = {}
        frames = net.forward_sequence(iter(bins + [None]), spike_counts)
        assert not spike_counts  # nothing runs before the first frame is asked for
        for k in range(1, 5):
            assert next(frames).shape == (16, 16)
            assert ad._grad_enabled
            assert {lid: n for lid, (_, n) in spike_counts.items()} == \
                {lid: k * n for lid, (_, n) in one_step.items()}
        frames.close()



class TestTapeSize:
    """Tape nodes recorded by one training-mode step of the criterion-3 toy
    network (32x32, 8 channels, 2 encoders, 1 residual block)."""

    @staticmethod
    def nodes_per_step(monkeypatch, **kw):
        spec = NetworkSpec(height=32, width=32, n_channels=8, n_encoders=2, n_residual=1, **kw)
        net = Network(spec, seed=0)
        net.train_mode(True)
        recorded = []
        make_op = ad.make_op

        def counting_make_op(data, parents, bw):
            out = make_op(data, parents, bw)
            recorded.append(out._bw is not None)
            return out

        monkeypatch.setattr(ad, "make_op", counting_make_op)
        rng = np.random.default_rng(0)
        counts = []
        for _ in range(2):  # the second step's state carries a gradient
            recorded.clear()
            net.forward_step(rng.standard_normal((32, 32)))
            counts.append(sum(recorded))
        return counts

    def test_toy_network(self, monkeypatch):
        # the unfused neuron and batch-norm ops recorded 160 and 175
        assert max(self.nodes_per_step(monkeypatch)) <= 42

    def test_pa_evsnn_amp(self, monkeypatch):
        # the unfused ops recorded 232 and 247; the AMP blocks keep most nodes
        counts = self.nodes_per_step(monkeypatch, potential_assisted=True, amp_enabled=True)
        assert max(counts) < 232

class TestStateDict:
    def test_get_set_roundtrip(self):
        rng = np.random.default_rng(56)
        net = Network(tiny_spec(), seed=0)
        x = rng.standard_normal((16, 16))
        net.forward_step(x)
        saved = net.get_state()
        after_one = net.forward_step(x).data.copy()
        net.forward_step(x)
        net.set_state(saved)
        replay = net.forward_step(x).data
        np.testing.assert_array_equal(replay, after_one)

    @pytest.mark.parametrize("edit", [lambda s: s.pop("head"), lambda s: s.update(bogus=None)],
                             ids=["missing", "extra"])
    def test_set_state_with_other_keys_raises(self, edit):
        net = Network(tiny_spec(), seed=0)
        state = net.get_state()
        edit(state)
        with pytest.raises(ContractError, match="state keys do not match this network's layers"):
            net.set_state(state)


class TestCheckpointIO:
    def test_save_load_identical_outputs(self, tmp_path):
        rng = np.random.default_rng(57)
        spec = tiny_spec(potential_assisted=True, amp_enabled=True)
        net = Network(spec, seed=3)
        path = tmp_path / "model.spkt"
        net.save(path)
        net2 = Network.load(path)
        assert net2.spec == spec
        x = rng.standard_normal((16, 16))
        o1 = net.forward_step(x).data
        o2 = net2.forward_step(x).data
        np.testing.assert_array_equal(o1, o2)


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_names_the_file_and_tensor(self, tmp_path, value):
        # a NaN weight loaded silently, and its frames came out black
        net = Network(tiny_spec(potential_assisted=True), seed=3)
        net.named_tensors()["up1.running_var"][2] = value
        path = tmp_path / "model.spkt"
        net.save(path)
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: tensor 'up1.running_var' holds a non-finite value")):
            Network.load(path)

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        # load built a randomly initialized network and then overwrote
        # every tensor: 29 of 77 ms of a 180x240 load went to the draws
        spec = tiny_spec(potential_assisted=True, amp_enabled=True)
        net = Network(spec, seed=3)
        path = tmp_path / "model.spkt"
        net.save(path)

        class NoDraws(np.random.Generator):
            def uniform(self, *args, **kwargs):
                raise AssertionError("Network.load drew random weights")

        monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: NoDraws(np.random.PCG64()))
        loaded = Network.load(path).named_tensors()
        saved = net.named_tensors()
        assert list(loaded) == list(saved)
        for name, value in saved.items():
            assert loaded[name].dtype == value.dtype, name
            assert loaded[name].tobytes() == value.tobytes(), name

    def test_folded_checkpoint_reloads_the_same_network(self, tmp_path):
        rng = np.random.default_rng(59)
        spec = tiny_spec()
        net = Network(spec, seed=0)
        net.train_mode(True)
        for _ in range(3):  # non-trivial running statistics
            net.forward_step(rng.standard_normal((16, 16)))
        net.train_mode(False)
        net.fold_batchnorm()
        path = tmp_path / "folded.spkt"
        net.save(path)
        net2 = Network.load(path)
        assert not any(s.has_bn for s in net2.stages)
        net.reset_state()
        xs = [rng.standard_normal((16, 16)) for _ in range(3)]
        for x in xs:
            net.forward_step(x)
            net2.forward_step(x)
        for lid, value in net.get_state().items():
            np.testing.assert_array_equal(net2.get_state()[lid], value, err_msg=lid)

    def test_missing_tensor_names_file_and_tensor(self, tmp_path):
        net = Network(tiny_spec(), seed=0)
        tensors = net.named_tensors()
        del tensors["down1.w"]
        path = tmp_path / "partial.spkt"
        checkpoint.save_tensors(path, tensors, meta={"spec": asdict(net.spec)})
        with pytest.raises(ParseError, match=r"partial\.spkt.*'down1\.w'"):
            Network.load(path)

    @pytest.mark.parametrize("edit,name", [
        # without its gamma, down1 loaded with batch norm off and its beta and
        # running statistics dropped without a word
        (lambda t: t.pop("down1.gamma"), "down1.beta"),
        (lambda t: t.update({"bogus.tensor": np.zeros(3)}), "bogus.tensor"),
    ])
    def test_unused_tensor_names_file_and_tensor(self, tmp_path, edit, name):
        net = Network(tiny_spec(), seed=0)
        tensors = net.named_tensors()
        edit(tensors)
        path = tmp_path / "extra.spkt"
        checkpoint.save_tensors(path, tensors, meta={"spec": asdict(net.spec)})
        with pytest.raises(ParseError, match=rf"extra\.spkt.*'{re.escape(name)}'"):
            Network.load(path)

    @pytest.mark.parametrize("meta", [None, {"bins": 3}], ids=["no-meta", "voxel-grid-meta"])
    def test_checkpoint_without_spec_names_the_file(self, tmp_path, meta):
        path = tmp_path / "bare.spkt"
        checkpoint.save_tensors(path, Network(tiny_spec(), seed=0).named_tensors(), meta=meta)
        with pytest.raises(ContractError, match=re.escape(
                f"{path}: checkpoint has no embedded network spec")):
            Network.load(path)

    def test_wrong_shaped_tensor_names_file_and_tensor(self, tmp_path):
        net = Network(tiny_spec(), seed=0)
        tensors = net.named_tensors()
        want = tensors["down1.w"].shape
        tensors["down1.w"] = tensors["down1.w"][:, :2]
        path = tmp_path / "narrow.spkt"
        checkpoint.save_tensors(path, tensors, meta={"spec": asdict(net.spec)})
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: tensor 'down1.w' has shape {tensors['down1.w'].shape}, "
                f"the spec wants {want}")):
            Network.load(path)

    def test_unknown_spec_key_in_meta(self, tmp_path):
        net = Network(tiny_spec(), seed=0)
        meta = {"spec": dict(asdict(net.spec), chanels=8)}
        path = tmp_path / "typo.spkt"
        checkpoint.save_tensors(path, net.named_tensors(), meta=meta)
        with pytest.raises(ConfigError, match="chanels"):
            Network.load(path)


class TestCheckpointCompat:
    """A PA-EVSNN+AMP checkpoint (16x16, 4 channels, 2 encoders, seed 3)
    written before the stage table existed, with the forward outputs and
    final state of three steps recorded by that same code."""

    SPEC = NetworkSpec(height=16, width=16, n_channels=4, n_encoders=2,
                       potential_assisted=True, amp_enabled=True)

    def test_tensor_names_and_values(self):
        saved, meta = checkpoint.load_tensors(FIXTURES / "pa_evsnn_amp_16x16_seed3.spkt")
        assert NetworkSpec(**meta["spec"]) == self.SPEC
        fresh = Network(self.SPEC, seed=3).named_tensors()
        assert list(fresh) == list(saved)
        for name, value in fresh.items():
            np.testing.assert_array_equal(value, saved[name], err_msg=name)

    def test_forward_outputs(self):
        loaded = Network.load(FIXTURES / "pa_evsnn_amp_16x16_seed3.spkt")
        fresh = Network(self.SPEC, seed=3)
        recorded, _ = checkpoint.load_tensors(FIXTURES / "pa_evsnn_amp_16x16_seed3_outputs.spkt")
        rng = np.random.default_rng(3)
        for k in range(3):
            x = rng.standard_normal((16, 16))
            out = loaded.forward_step(x).data
            np.testing.assert_array_equal(out, recorded[f"step{k}"])
            np.testing.assert_array_equal(fresh.forward_step(x).data, out)
        for lid, value in loaded.get_state().items():
            np.testing.assert_array_equal(value, recorded[f"state.{lid}"], err_msg=lid)


class TestFoldBatchNorm:
    def test_eval_outputs_preserved(self):
        rng = np.random.default_rng(58)
        net = Network(tiny_spec(), seed=1)
        # give running stats non-trivial values via a few training steps
        net.train_mode(True)
        for _ in range(3):
            net.forward_step(rng.standard_normal((16, 16)))
        net.train_mode(False)
        net.reset_state()
        x = rng.standard_normal((16, 16))
        ref = [net.forward_step(x).data.copy() for _ in range(3)]
        net.fold_batchnorm()
        net.reset_state()
        out = [net.forward_step(x).data.copy() for _ in range(3)]
        for r, o in zip(ref, out):
            np.testing.assert_allclose(o, r, atol=1e-9)
