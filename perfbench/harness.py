"""Runs one workload: set-up, warm-up, the measured phase and, with
tracing, a second traced phase in the same process. Turns what they
recorded into the end-to-end and per-layer metrics."""

import ctypes
import glob
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

from . import tracing

STAGES = ("head", "down1", "down2", "down3", "res1-1", "res1-2",
          "up1", "up2", "up3", "pred")

SETUPS = 3  # set-ups per run; setup_s is their median
# Set-up cost depends on the inputs (the simulator's event count follows the
# scene), so the set-ups other than the run's own build the inputs of other
# seeds: setup_s is then a median over scenes, not the cost of one scene.
SETUP_SEED_STRIDE = 1_000_000

END_TO_END = {  # name -> (unit, True when lower is better)
    "setup_s": ("s", True),
    "peak_rss_mb": ("MB", True),
    "step_ms": ("ms", True),
    "throughput_per_s": ("1/s", False),
}


class TraceCoverageError(RuntimeError):
    """A layer the workload exercises recorded no span while traced."""


def peak_rss_mb():
    """High-water resident set of this process (one workload run)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(setup_s, measurement, rss_mb):
    values = {"setup_s": setup_s, "peak_rss_mb": rss_mb,
              "step_ms": measurement.step_ms,
              "throughput_per_s": measurement.throughput_per_s}
    return {name: _metric(values[name], unit) for name, (unit, _) in END_TO_END.items()}


def run(workload, seed, seconds, trace, workdir):
    """Returns (report, result); result is the benchmark's last line."""
    setup_times, state = timed_setups(workload, seed, workdir)
    warmup_s = workload.warm_up(state)
    measurement = workload.measure(state, seconds)
    setup_s = statistics.median(setup_times)
    metrics = end_to_end(setup_s, measurement, peak_rss_mb())

    report = {"workload": type(workload).__name__, "seed": seed, "seconds": seconds,
              "setup_s_samples": setup_times, "warmup_dropped_s": warmup_s,
              "steps": measurement.steps, "attempted": measurement.attempted,
              "failed": measurement.failed,
              "failed_frac": measurement.failed / max(measurement.attempted, 1),
              "problems": measurement.problems, "end_to_end": metrics,
              **measurement.report}
    attempted, failed = measurement.attempted, measurement.failed
    correct = measurement.correct
    if trace:
        per_layer, traced = traced_pass(workload, seed, seconds, workdir, state,
                                        metrics, measurement)
        attempted += traced.attempted
        failed += traced.failed
        correct = correct and traced.correct
        report["traced_problems"] = traced.problems
        report["per_layer"] = per_layer
        metrics = per_layer
    return report, {"correct": bool(correct), "attempted": int(attempted),
                    "failed": int(failed), "metrics": metrics}


def timed_setups(workload, seed, workdir):
    """Run SETUPS set-ups, the run's own seed last, and return their times
    and the last one's state: the inputs the run measures."""
    times, state = [], None
    for k in reversed(range(SETUPS)):
        state = None  # drop the previous set-up before building the next
        start = time.perf_counter()
        state = workload.setup(seed + k * SETUP_SEED_STRIDE, workdir)
        times.append(time.perf_counter() - start)
    return times, state


def traced_pass(workload, seed, seconds, workdir, state, untraced, measurement):
    """Measure again, warm, with every layer traced. The set-ups are
    traced too, for the set-up layers, and their results dropped; the last
    one rebuilds the run's own inputs, so the files on disk still match
    `state`."""
    tracer = tracing.Tracer()
    with tracer:
        start_snap = tracer.snapshot()
        setup_times, _ = timed_setups(workload, seed, workdir)
        setup_snap = tracer.snapshot()
        traced = workload.measure(state, seconds)
        timed_snap = tracer.snapshot()
        extra = workload.after_trace(state)
        idle = tracer.idle_layers(workload.layers)
    if idle:
        raise TraceCoverageError(f"{type(workload).__name__}: no spans recorded in "
                                 f"layer(s) {', '.join(idle)}")
    traced_e2e = end_to_end(statistics.median(setup_times), traced, peak_rss_mb())
    counts = {**measurement.counts, **extra}
    metrics = layer_metrics(tracing.delta(timed_snap, setup_snap),
                            tracing.delta(setup_snap, start_snap),
                            tracer.snapshot(), traced.executed,
                            workload.stage_macs(state), counts)
    metrics["autodiff.blas_peak_gmacs_per_s"] = _metric(blas_peak_gmacs_per_s(), "GMAC/s")
    for name, (unit, lower_better) in END_TO_END.items():
        if name == "peak_rss_mb":
            # ru_maxrss is the process's high-water mark and the traced phase
            # runs after the untraced one, so the tracer's memory cannot show
            continue
        base, seen = untraced[name]["value"], traced_e2e[name]["value"]
        ratio = seen / base if lower_better else base / seen
        metrics[f"trace.overhead.{name}"] = _metric(ratio - 1.0, "ratio")
    return metrics, traced


def layer_metrics(timed, setup_phase, whole, steps, stage_macs, counts):
    """Per-layer metrics. Times are seconds per step run in the timed
    phase (warm-up steps included, as their spans are), except set-up
    work: event generation and data preparation are seconds per call,
    checkpoint loading seconds per set-up. A layer or stage the workload
    does not run reads 0."""
    spans, layers, tape_nodes = timed
    steps = max(steps, 1)

    def per_step(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names) / steps

    def per_call(aggregate, name):
        count, total, _ = aggregate[0].get(name, (0, 0.0, 0.0))
        return total / count if count else 0.0

    out = {
        "autodiff.backward_s": (per_step("autodiff.Tensor.backward"), "s"),
        "autodiff.conv2d_s": (per_step("autodiff.conv2d"), "s"),
        "autodiff.conv2d_bw_s": (per_step("autodiff.conv2d.bw"), "s"),
        "autodiff.adam_s": (per_step("autodiff.Adam.step"), "s"),
        "autodiff.tape_nodes_per_step": (tape_nodes / steps, "count"),
    }
    for stage in STAGES:
        span = f"model.ConvStage.forward[{stage}]"
        fwd_s = per_step(span)
        gmacs = spans.get(span, (0,))[0] * stage_macs.get(stage, 0) / 1e9 / steps
        out[f"model.{stage}.fwd_s"] = (fwd_s, "s")
        out[f"model.{stage}.gmacs"] = (gmacs, "GMAC")
        out[f"model.{stage}.gmacs_per_s"] = (gmacs / fwd_s if fwd_s else 0.0, "GMAC/s")
    events_s = layers["events"][1]
    n_events = counts.get("events", 0)
    loaded = spans.get("events.load_events", (0,))[0]
    out.update({
        "model.forward_step_s": (per_step("model.Network.forward_step"), "s"),
        "model.skip_s": (per_step("model.skip_connect"), "s"),
        "neurons.spiking_step_s": (per_step("neurons.SpikingLayer.step"), "s"),
        "neurons.mp_step_s": (per_step("neurons.MPLayer.step"), "s"),
        "neurons.spike_rate": (counts.get("spike_rate", 0.0), "ratio"),
        "events.load_s": (per_step("events.load_events"), "s"),
        "events.split_s": (per_step("events.split_windows"), "s"),
        "events.voxelize_s": (per_step("events.encode_voxel_grid"), "s"),
        "events.normalize_s": (per_step("events.normalize_nonzero"), "s"),
        "events.events": (n_events if loaded else 0, "count"),
        "events.windows": (counts.get("windows", 0) if loaded else 0, "count"),
        "events.ns_per_event": (1e9 * events_s / (loaded * n_events) if loaded else 0.0, "ns"),
        "training.loss_s": (per_step("training.reconstruction_loss",
                                     "training.temporal_consistency_loss"), "s"),
        "training.data_s": (per_call(timed, "training.scene_to_bins"), "s"),
        "synthetic.generate_s": (per_call(whole, "synthetic.generate_events"), "s"),
        "quality.metrics_s": (layers["quality"][1] / steps, "s"),
        "checkpoint.load_s": (setup_phase[0].get("checkpoint.load_tensors", (0, 0.0))[1]
                              / SETUPS, "s"),
        "checkpoint.bytes": (counts.get("ckpt_bytes", 0), "B"),
        "energy.synops_per_bin": (counts.get("synops_per_bin", 0.0), "count"),
        "energy.joules_per_bin": (counts.get("joules_per_bin", 0.0), "J"),
    })
    return {name: _metric(value, unit) for name, (value, unit) in out.items()}


def blas_peak_gmacs_per_s(n=1024, repeats=5):
    """Best rate of a plain float64 n x n GEMM: the ceiling conv GEMMs face."""
    rng = np.random.default_rng(0)
    a, b = rng.random((n, n)), rng.random((n, n))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return n ** 3 / best / 1e9


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(threads_requested):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads_requested": threads_requested,
            "blas_threads": _blas_threads(),
            "ram_mb": round(pages / 2 ** 20), "platform": sys.platform}
