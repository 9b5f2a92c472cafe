"""Synaptic-operation counting, spike-rate measurement, and the 45nm
energy model (4.6 pJ per ANN MAC, 0.9 pJ per SNN addition).

Per-layer MAC counts follow k_w * k_h * c_in * h_out * w_out * c_out for
convolutions and f_in * f_out for linear layers; pooling, elementwise and
skip operations are excluded. SNN layers contribute op_ann * rate * E_ADD;
membrane-potential branch layers compute on real values and are billed at
the ANN MAC cost.
"""

import json
from dataclasses import dataclass, field

from .errors import ConfigError
from .model import spike_rate, stage_table

E_MAC = 4.6e-12  # J per ANN multiply-accumulate
E_ADD = 0.9e-12  # J per SNN addition

# Published reference operating points (180x240 input) usable via the CLI
# --paper-rates switch: op counts, measured rates, and MP-op fractions.
PUBLISHED = {
    "evsnn": {"op_ann": 0.0, "op_snn": 16.12e9, "rate": 0.264, "mp_fraction": 0.0},
    "pa-evsnn": {"op_ann": 1.49e9, "op_snn": 16.35e9, "rate": 0.251, "mp_fraction": 0.084},
    "e2vid-lstm": {"op_ann": 20.07e9, "op_snn": 0.0, "rate": 0.0, "mp_fraction": 0.0},
    "e2vid-gru": {"op_ann": 17.63e9, "op_snn": 0.0, "rate": 0.0, "mp_fraction": 0.0},
}


@dataclass
class LayerOpCount:
    layer: str
    op_ann: int
    is_snn: bool  # operates on binary spikes; otherwise a membrane-potential branch layer

    @property
    def is_mp(self):
        return not self.is_snn


@dataclass
class SpikeStats:
    per_layer: dict  # layer id -> firing rate in [0, 1]
    overall_neuron_weighted: float
    overall_op_weighted: float


@dataclass
class EnergyReport:
    per_layer: dict  # layer id -> joules
    total: float
    total_ann_equivalent: float
    ratio_vs_ann: float
    warnings: list = field(default_factory=list)

    def to_json(self):
        return json.dumps({
            "per_layer_joules": self.per_layer,
            "total_joules": self.total,
            "total_ann_equivalent_joules": self.total_ann_equivalent,
            "ratio_vs_ann": self.ratio_vs_ann,
            "warnings": self.warnings,
        }, indent=2)


def count_ann_ops(spec):
    """MAC-equivalent count per weighted layer of a network spec, in forward
    order: one conv per stage (a decoder's on its upsampled output grid),
    then the 3x3 depthwise conv and [F, I] -> C linear of its AMP block."""
    counts = []
    for g in stage_table(spec):
        grid = g.h_out * g.w_out
        counts.append(LayerOpCount(g.name, g.kernel ** 2 * g.cin * grid * g.cout, is_snn=True))
        if g.potential and spec.amp_enabled:
            counts.append(LayerOpCount(f"{g.name}-amp-conv", 9 * grid * g.cout, is_snn=False))
            counts.append(LayerOpCount(f"{g.name}-amp-linear", 2 * g.cout ** 2, is_snn=False))
    return counts


def measure_spike_rates(net, bin_sequences, op_counts=None):
    """Run sequences through `net` and average each layer's firing rate.

    `bin_sequences` is an iterable of bin iterables (each a full sequence;
    the state is reset between sequences; no frame is kept). Rates are spikes
    / neurons stepped, pooled over all steps and sequences in one spike tally.
    """
    spike_counts = {}
    for bins in bin_sequences:
        for _ in net.forward_sequence(bins, spike_counts):
            pass
    per_layer = {lid: spike_rate({lid: tally}) for lid, tally in spike_counts.items()}
    neuron_weighted = spike_rate(spike_counts)

    if op_counts is None:
        op_counts = count_ann_ops(net.spec)
    ops = {c.layer: c.op_ann for c in op_counts}
    weighted = [(per_layer[lid], ops[lid]) for lid in per_layer if lid in ops]
    denom = sum(w for _, w in weighted)
    op_weighted = (sum(r * w for r, w in weighted) / denom) if denom else 0.0
    return SpikeStats(per_layer=per_layer,
                      overall_neuron_weighted=neuron_weighted,
                      overall_op_weighted=op_weighted)


def _rates(spike_stats):
    """The {layer: rate} of a SpikeStats or of a plain dict; {} for None."""
    per_layer = spike_stats.per_layer if isinstance(spike_stats, SpikeStats) else spike_stats
    return dict(per_layer or {})


def estimate_energy(op_counts, spike_stats=None, empty_input_rate=None):
    """Energy per layer and in total, each row priced by `energy_from_totals`:
    an SNN row as additions at its layer's rate, an MP row as ANN MACs.
    `spike_stats` may be a SpikeStats or a plain {layer: rate} dict;
    missing layers are priced at rate 0.
    """
    rates = _rates(spike_stats)
    per_layer = {}
    total_ann = 0.0
    for c in op_counts:
        ann = energy_from_totals(c.op_ann, 0, 0)
        total_ann += ann
        rate = rates.get(c.layer, 0.0)
        per_layer[c.layer] = energy_from_totals(0, c.op_ann, rate) if c.is_snn else ann
    total = sum(per_layer.values())
    warnings = []
    if empty_input_rate is not None and empty_input_rate > 0:
        warnings.append(
            f"spike rate {empty_input_rate:.4f} > 0 with empty input: "
            "unfolded batch-norm bias keeps neurons firing, inflating energy")
    return EnergyReport(per_layer=per_layer, total=total,
                        total_ann_equivalent=total_ann,
                        ratio_vs_ann=(total_ann / total if total > 0 else float("inf")),
                        warnings=warnings)


def energy_from_totals(op_ann, op_snn, rate):
    """The 45nm price, stated once: #OP_ann * 4.6pJ + #OP_snn * rate * 0.9pJ."""
    return op_ann * E_MAC + op_snn * rate * E_ADD


def ann_snn_ratio(a, b, c):
    """ANN/SNN energy ratio from normalized op counts.

    a: normalized ANN ops (convention 1), b: spike rate of the SNN part,
    c: fraction of ops in membrane-potential (ANN-cost) layers.
    """
    if not (0.0 <= b <= 1.0 and 0.0 <= c <= 1.0):
        raise ConfigError("rate and MP fraction must lie in [0, 1]")
    return energy_from_totals(a, 0, 0) / energy_from_totals(c, 1.0 - c, b)


def format_report(op_counts, report, spike_stats=None):
    """Aligned-column text table of per-layer ops, rates, and energy."""
    rates = _rates(spike_stats)
    lines = [f"{'layer':<18}{'type':<6}{'op_ann':>14}{'rate':>8}{'energy (J)':>14}"]
    for c in op_counts:
        kind = "SNN" if c.is_snn else "MP"
        rate = rates.get(c.layer)
        rate_s = f"{rate:.4f}" if rate is not None else "-"
        lines.append(f"{c.layer:<18}{kind:<6}{c.op_ann:>14,}{rate_s:>8}"
                     f"{report.per_layer.get(c.layer, 0.0):>14.3e}")
    lines.append(f"{'total':<18}{'':<6}{sum(c.op_ann for c in op_counts):>14,}"
                 f"{'':>8}{report.total:>14.3e}")
    lines.append(f"ANN-equivalent total: {report.total_ann_equivalent:.3e} J "
                 f"(ratio {report.ratio_vs_ann:.2f}x)")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines)
