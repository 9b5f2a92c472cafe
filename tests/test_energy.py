from dataclasses import fields, replace

import numpy as np
import pytest

from evrecon.energy import (E_ADD, E_MAC, PUBLISHED, LayerOpCount, ann_snn_ratio,
                            count_ann_ops, energy_from_totals, estimate_energy,
                            format_report, measure_spike_rates)
from evrecon.errors import ConfigError
from evrecon.model import Network, NetworkSpec


def tiny_spec(**kw):
    base = dict(height=16, width=16, n_channels=4, n_encoders=2, n_residual=1)
    base.update(kw)
    return NetworkSpec(**base)


class TestOpCounting:
    def test_single_conv_formula(self):
        # head layer: 5x5 kernel, 1 -> n_channels channels, full resolution
        counts = {c.layer: c for c in count_ann_ops(tiny_spec())}
        assert counts["head"].op_ann == 5 * 5 * 1 * 16 * 16 * 4

    def test_encoder_at_halved_resolution(self):
        counts = {c.layer: c for c in count_ann_ops(tiny_spec())}
        assert counts["down1"].op_ann == 5 * 5 * 4 * 8 * 8 * 8

    def test_concat_vs_add_decoder_ops(self):
        cc = {c.layer: c.op_ann for c in count_ann_ops(tiny_spec(skip_kind="CONCAT"))}
        aa = {c.layer: c.op_ann for c in count_ann_ops(tiny_spec(skip_kind="ADD"))}
        assert cc["up1"] == 2 * aa["up1"]

    def test_all_backbone_layers_snn_flagged(self):
        # every conv of the fully-spiking variant consumes binary spikes
        for c in count_ann_ops(tiny_spec()):
            assert c.is_snn and not c.is_mp

    def test_one_flag_per_row(self):
        # a row is either spike-driven or a membrane-potential branch layer
        assert [f.name for f in fields(LayerOpCount)] == ["layer", "op_ann", "is_snn"]
        counts = count_ann_ops(tiny_spec(potential_assisted=True, amp_enabled=True))
        assert {c.is_snn for c in counts} == {True, False}
        assert all(c.is_mp == (not c.is_snn) for c in counts)
        with pytest.raises(AttributeError):
            counts[0].is_mp = True

    def test_resolution_override(self):
        base = sum(c.op_ann for c in count_ann_ops(tiny_spec()))
        big = sum(c.op_ann for c in count_ann_ops(replace(tiny_spec(), height=32, width=32)))
        assert big == 4 * base  # ops scale with pixel count

    def test_full_scale_totals_match_published(self):
        # 180x240 EVSNN op count agrees with the published 16.12 G figure
        spec = NetworkSpec(height=180, width=240)
        total = sum(c.op_ann for c in count_ann_ops(spec))
        assert total == pytest.approx(16.12e9, rel=0.02)

    def test_full_scale_pa_totals(self):
        # the PA variant adds only the (MAC-billed) adaptive-tau blocks on
        # top of the fully-spiking backbone
        base = sum(c.op_ann for c in count_ann_ops(NetworkSpec(height=180, width=240)))
        spec = NetworkSpec(height=180, width=240, potential_assisted=True,
                           amp_enabled=True)
        counts = count_ann_ops(spec)
        snn = sum(c.op_ann for c in counts if c.is_snn and not c.is_mp)
        mp = sum(c.op_ann for c in counts if c.is_mp)
        assert snn == base
        assert 0 < mp < 0.01 * base


class TestEnergyModel:
    def test_constants(self):
        assert E_MAC == 4.6e-12 and E_ADD == 0.9e-12

    def test_energy_from_totals_pure_ann(self):
        assert energy_from_totals(1e9, 0.0, 0.0) == pytest.approx(1e9 * 4.6e-12)

    def test_energy_from_totals_pure_snn(self):
        assert energy_from_totals(0.0, 1e9, 0.5) == pytest.approx(0.5e9 * 0.9e-12)

    def test_published_evsnn_energy(self):
        p = PUBLISHED["evsnn"]
        e = energy_from_totals(p["op_ann"], p["op_snn"], p["rate"])
        assert e == pytest.approx(3.83e-3, rel=0.005)

    def test_published_pa_evsnn_energy(self):
        p = PUBLISHED["pa-evsnn"]
        e = energy_from_totals(p["op_ann"], p["op_snn"], p["rate"])
        assert e == pytest.approx(1.055e-2, rel=0.005)

    def test_published_lstm_energy(self):
        p = PUBLISHED["e2vid-lstm"]
        assert energy_from_totals(p["op_ann"], 0, 0) == pytest.approx(9.232e-2, rel=0.005)

    def test_ratio_pure_snn(self):
        # equal op counts, rate b, no MP ops: ratio = 4.6 / (0.9 b)
        assert ann_snn_ratio(1.0, 0.264, 0.0) == pytest.approx(4.6 / (0.9 * 0.264))

    def test_ratio_published_operating_points(self):
        assert ann_snn_ratio(1.0, 0.264, 0.0) == pytest.approx(19.36, rel=0.005)
        assert ann_snn_ratio(1.0, 0.251, 0.084) == pytest.approx(7.75, rel=0.005)

    def test_ratio_validates_inputs(self):
        with pytest.raises(ConfigError):
            ann_snn_ratio(1.0, 1.5, 0.0)
        with pytest.raises(ConfigError):
            ann_snn_ratio(1.0, 0.5, -0.1)

    def test_estimate_energy_rates_scale_linearly(self):
        counts = count_ann_ops(tiny_spec())
        lo = estimate_energy(counts, {c.layer: 0.1 for c in counts})
        hi = estimate_energy(counts, {c.layer: 0.2 for c in counts})
        snn_layers = [c.layer for c in counts if c.is_snn and not c.is_mp]
        for lid in snn_layers:
            assert hi.per_layer[lid] == pytest.approx(2 * lo.per_layer[lid])

    def test_estimate_energy_zero_rate_is_free(self):
        counts = count_ann_ops(tiny_spec())
        report = estimate_energy(counts, {c.layer: 0.0 for c in counts})
        assert report.total == 0.0  # a silent fully-spiking network is free

    def test_ann_equivalent_total(self):
        counts = count_ann_ops(tiny_spec())
        report = estimate_energy(counts, {c.layer: 0.5 for c in counts})
        expect = sum(c.op_ann for c in counts) * E_MAC
        assert report.total_ann_equivalent == pytest.approx(expect)

    def test_bias_warning_emitted(self):
        counts = count_ann_ops(tiny_spec())
        report = estimate_energy(counts, {}, empty_input_rate=0.05)
        assert len(report.warnings) == 1
        assert "batch-norm" in report.warnings[0]

    def test_report_json(self):
        import json
        counts = count_ann_ops(tiny_spec())
        report = estimate_energy(counts, {})
        data = json.loads(report.to_json())
        assert "total_joules" in data and "per_layer_joules" in data


class TestSpikeRates:
    def test_rates_in_unit_interval(self):
        rng = np.random.default_rng(81)
        net = Network(tiny_spec(), seed=0)
        bins = [rng.standard_normal((16, 16)) for _ in range(4)]
        stats = measure_spike_rates(net, [bins])
        assert stats.per_layer
        for rate in stats.per_layer.values():
            assert 0.0 <= rate <= 1.0
        assert 0.0 <= stats.overall_neuron_weighted <= 1.0
        assert 0.0 <= stats.overall_op_weighted <= 1.0

    def test_strong_input_spikes_more_than_zero_input(self):
        net = Network(tiny_spec(), seed=0)
        zero = measure_spike_rates(net, [[np.zeros((16, 16))] * 4])
        net2 = Network(tiny_spec(), seed=0)
        rng = np.random.default_rng(82)
        hot = measure_spike_rates(net2, [[rng.standard_normal((16, 16)) * 5
                                          for _ in range(4)]])
        assert hot.overall_neuron_weighted > zero.overall_neuron_weighted

    def test_format_report_runs(self):
        counts = count_ann_ops(tiny_spec())
        report = estimate_energy(counts, {c.layer: 0.25 for c in counts})
        text = format_report(counts, report, {c.layer: 0.25 for c in counts})
        assert "total" in text and "head" in text

    def test_format_report_labels_snn_and_mp_rows(self):
        counts = count_ann_ops(tiny_spec(potential_assisted=True, amp_enabled=True))
        text = format_report(counts, estimate_energy(counts, {}))
        kinds = {line.split()[0]: line.split()[1] for line in text.splitlines()[1:len(counts) + 1]}
        assert kinds == {c.layer: "SNN" if c.is_snn else "MP" for c in counts}
