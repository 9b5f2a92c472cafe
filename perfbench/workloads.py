"""The three workloads. Each builds its inputs from the seed, times its work
and checks the program's outputs.

A workload has a set-up (timed on its own, several times), an optional
warm-up that is dropped, and a measured phase that repeats whole units of
work (a training run, a reconstruction pass, an ingest pass) until
`seconds` have passed, always at least one. Its `step` is the unit behind
`step_ms`, and per-layer times are given per step:

- toy_train: one optimizer step (one `loss_every`-bin segment:
  forward, loss, backward, Adam).
- sensor_reconstruct: one 180x240 bin through EVSNN plus one through
  PA-EVSNN+AMP.
- ingest: one pass over the event file (parse, window, voxelize,
  normalize).
"""

import math
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from evrecon import autodiff, energy, events, model, synthetic, training

SENSOR_H, SENSOR_W = 180, 240
# constant diagonal per-step shifts: every frame interval has events
SHIFTS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


@dataclass
class Measurement:
    """What one measured phase produced."""

    steps: int            # steps timed
    executed: int         # steps run, warm-up included (per-layer denominator)
    step_ms: float        # median wall time of one step
    throughput_per_s: float
    attempted: int = 0    # outputs checked
    failed: int = 0       # outputs that failed their check
    problems: list = field(default_factory=list)  # run-level check failures
    counts: dict = field(default_factory=dict)    # deterministic per-layer counts
    report: dict = field(default_factory=dict)    # workload-specific figures

    @property
    def correct(self):
        return self.failed == 0 and not self.problems


def _median_ms(samples):
    return 1000.0 * statistics.median(samples)


class StepClock:
    """Notes the time each optimizer step returns (one call per step)."""

    def __init__(self):
        self.marks = []
        self._original = None

    def __enter__(self):
        self._original = original = autodiff.Adam.step
        marks = self.marks

        def step(optimizer):
            original(optimizer)
            marks.append(time.perf_counter())

        autodiff.Adam.step = step
        return self

    def __exit__(self, *exc):
        autodiff.Adam.step = self._original
        return False


class Workload:
    """Hooks a workload may leave out."""

    layers = ()  # layers that must record spans when traced

    def warm_up(self, state):
        """Run and drop the warm-up; returns its seconds, or None."""
        return None

    def stage_macs(self, state):
        """Conv stage name -> MACs of one forward call."""
        return {}

    def after_trace(self, state):
        """Counts taken through the traced layers after the timed phase."""
        return {}


class ToyTrain(Workload):
    """The criterion-3 overfit set-up, trained through `training.train`:
    a 32x32 `random_scene(contrast=0.1)`, 8 channels, 2 encoders, one
    residual block, batch 1 and 40 bins.

    A unit is a fresh network trained for 6 epochs, so its losses repeat
    exactly; units repeat until the time is used, and at least two run so
    that their losses can be compared. The first 8 optimizer steps of each
    unit (the first epoch: data preparation and, on the first unit, the
    process warm-up) are dropped.
    """

    layers = ("autodiff", "model", "neurons", "events", "training",
              "synthetic", "quality")
    size, steps, epochs = 32, 41, 6
    warmup_steps = 8  # the first epoch
    min_runs = 2

    def spec(self):
        return model.NetworkSpec(height=self.size, width=self.size, n_channels=8,
                                 n_encoders=2, n_residual=1)

    def config(self):
        return training.TrainConfig(batch=1, epochs=self.epochs, seq_len=self.steps - 1)

    def setup(self, seed, workdir):
        """Scene, its voxel bins (the data preparation `train` repeats
        before its first epoch) and a fresh network."""
        rng = np.random.default_rng(seed)
        scene = synthetic.random_scene(self.size, self.size, self.steps, rng, contrast=0.1)
        bins, _, _ = training.scene_to_bins(scene)
        if len(bins) != self.steps - 1:
            raise RuntimeError(f"scene gave {len(bins)} bins, expected {self.steps - 1}")
        return {"scene": scene, "net": model.Network(self.spec(), seed=0)}

    def stage_macs(self, state):
        return {c.layer: c.op_ann for c in energy.count_ann_ops(self.spec())}

    def measure(self, state, seconds):
        cfg = self.config()
        per_epoch = -(-cfg.seq_len // cfg.loss_every)
        expected = cfg.epochs * per_epoch
        samples, histories = [], []
        runs = attempted = failed = executed = 0
        deadline = time.perf_counter() + seconds
        while True:
            net = state.pop("net", None) or model.Network(self.spec(), seed=0)
            with StepClock() as clock:
                start = time.perf_counter()
                try:
                    histories.append(training.train(net, [state["scene"]], cfg))
                except Exception as exc:  # a failed run counts its missing steps
                    print(f"training failed: {exc!r}", file=sys.stderr, flush=True)
            runs += 1
            marks = [start] + clock.marks
            durations = [b - a for a, b in zip(marks, marks[1:])]
            samples += durations[self.warmup_steps:]
            executed += len(clock.marks)
            attempted += expected
            failed += expected - len(clock.marks)
            if runs >= self.min_runs and time.perf_counter() >= deadline:
                break

        problems = []
        losses = [[r["loss"] for r in h] for h in histories]
        if not all(np.isfinite(v) for h in losses for v in h):
            problems.append("a training loss is not finite")
        if len(histories) < self.min_runs:
            problems.append("fewer than two training runs finished; "
                            "their losses could not be compared")
        if any(h != losses[0] for h in losses[1:]):
            problems.append("repeated training runs gave different losses")
        last = histories[0][-1] if histories else {"loss": float("nan"), "spike_rate": 0.0}
        first_loss = histories[0][0]["loss"] if histories else float("nan")
        rate = len(samples) / sum(samples) if samples else float("nan")
        return Measurement(
            steps=len(samples), executed=executed,
            step_ms=_median_ms(samples) if samples else float("nan"),
            throughput_per_s=rate,
            attempted=attempted, failed=failed, problems=problems,
            counts={"spike_rate": last["spike_rate"]},
            report={"train_steps_per_s": rate,
                    "train_loss": last["loss"],
                    "first_epoch_loss": first_loss,
                    "loss_decreased": bool(last["loss"] < first_loss),
                    "epoch_losses": losses[0] if losses else [],
                    "train_runs": len(histories),
                    "steps_dropped_per_run": self.warmup_steps,
                    "step_ms_samples": [round(1000.0 * s, 3) for s in samples]})


class SensorReconstruct(Workload):
    """`evrecon reconstruct` at 180x240 for EVSNN and PA-EVSNN+AMP.

    Set-up simulates a scene, writes its event file, and saves and reloads
    one SPKT checkpoint per variant. The first 180x240 bin of the process
    is slow (about 3.9 s against 3.0 s); one EVSNN bin is run first and
    dropped. A pass opens the event file, cuts 10 ms windows,
    voxelizes each into one bin and runs `forward_step` under `no_grad`;
    passes alternate between the two networks.
    """

    layers = ("autodiff", "model", "neurons", "events", "synthetic",
              "checkpoint", "energy")
    variants = (("evsnn", {}),
                ("paevsnn", {"potential_assisted": True, "amp_enabled": True}))
    scene_steps = 4       # three 10 ms frame intervals
    window_s = 0.01

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        scene = synthetic.random_scene(SENSOR_H, SENSOR_W, self.scene_steps, rng)
        scene.trajectory = [SHIFTS[int(rng.integers(len(SHIFTS)))]] * (self.scene_steps - 1)
        stream, _, _ = synthetic.generate_events(scene)
        path = workdir / "sensor_events.txt"
        events.save_events(path, stream, SENSOR_H, SENSOR_W)
        nets, ckpt_bytes = {}, 0
        for name, extra in self.variants:
            ckpt_path = workdir / f"{name}.spkt"
            spec = model.NetworkSpec(height=SENSOR_H, width=SENSOR_W, **extra)
            model.Network(spec, seed=seed).save(ckpt_path)
            ckpt_bytes += ckpt_path.stat().st_size
            nets[name] = model.Network.load(ckpt_path)
        return {"path": path, "nets": nets, "n_events": len(stream),
                "ckpt_bytes": ckpt_bytes}

    def warm_up(self, state):
        events_list, _ = events.load_events(state["path"])
        window = events.split_windows(events_list, SENSOR_H, SENSOR_W,
                                      duration=self.window_s)[0]
        plane = events.normalize_nonzero(events.encode_voxel_grid(window, 1)).data[0]
        state["first_bins"] = [plane]
        net = state["nets"][self.variants[0][0]]
        start = time.perf_counter()
        net.reset_state()
        with autodiff.no_grad():
            net.forward_step(plane)
        return time.perf_counter() - start

    def stage_macs(self, state):
        # both networks share the conv stages; PA-EVSNN only adds AMP blocks
        evsnn = state["nets"][self.variants[0][0]]
        return {c.layer: c.op_ann for c in energy.count_ann_ops(evsnn.spec)}

    def _pass(self, net, path, bin_times):
        """File open to last frame; returns (frames, seconds)."""
        start = time.perf_counter()
        events_list, sensor = events.load_events(path)
        h, w = sensor
        windows = events.split_windows(events_list, h, w, duration=self.window_s)
        frames = []
        net.reset_state()
        with autodiff.no_grad():
            for window in windows:
                grid = events.normalize_nonzero(events.encode_voxel_grid(window, 1))
                for plane in events.slice_temporal_bins(grid):
                    t0 = time.perf_counter()
                    frames.append(net.forward_step(plane).data[0, 0])
                    bin_times.append(time.perf_counter() - t0)
        return frames, time.perf_counter() - start

    def measure(self, state, seconds):
        bin_times = {name: [] for name, _ in self.variants}
        busy, attempted, failed, passes = 0.0, 0, 0, 0
        deadline = time.perf_counter() + seconds
        while True:
            for name, _ in self.variants:
                frames, elapsed = self._pass(state["nets"][name], state["path"],
                                             bin_times[name])
                passes += 1
                busy += elapsed
                attempted += len(frames)
                failed += sum(1 for f in frames
                              if f.shape != (SENSOR_H, SENSOR_W) or not np.isfinite(f).all())
            if time.perf_counter() >= deadline:
                break
        medians = {name: _median_ms(t) for name, t in bin_times.items()}
        problems = [] if attempted else ["no frames were reconstructed"]
        pairs = min(len(t) for t in bin_times.values())
        return Measurement(
            steps=pairs, executed=pairs,
            step_ms=sum(medians.values()),
            throughput_per_s=attempted / busy,
            attempted=attempted, failed=failed, problems=problems,
            counts={"events": state["n_events"], "windows": attempted / passes,
                    "ckpt_bytes": state["ckpt_bytes"]},
            report={"evsnn_bin_ms": medians["evsnn"],
                    "evsnn_bins": len(bin_times["evsnn"]),
                    "paevsnn_bin_ms": medians["paevsnn"],
                    "paevsnn_bins": len(bin_times["paevsnn"]),
                    "reconstruct_fps": attempted / busy,
                    "passes": passes,
                    "bin_ms_samples": {k: [round(1000.0 * s, 3) for s in v]
                                       for k, v in bin_times.items()}})

    def after_trace(self, state):
        """Spike rate, synaptic ops and energy per bin on the first bin,
        through the energy layer (measured rates), averaged over both
        networks."""
        rates, synops, joules = [], [], []
        for net in state["nets"].values():
            ops = energy.count_ann_ops(net.spec)
            stats = energy.measure_spike_rates(net, [state["first_bins"]], op_counts=ops)
            report = energy.estimate_energy(ops, stats)
            rates.append(stats.overall_neuron_weighted)
            synops.append(sum(c.op_ann * (1.0 if c.is_mp or not c.is_snn
                                          else stats.per_layer.get(c.layer, 0.0))
                              for c in ops))
            joules.append(report.total)
        n = len(rates)
        return {"spike_rate": sum(rates) / n, "synops_per_bin": sum(synops) / n,
                "joules_per_bin": sum(joules) / n}


class Ingest(Workload):
    """`evrecon voxelize` on a dense generated stream at 180x240.

    One million events, uniform over one second, the sensor plane and both
    polarities, written in the event-file format with a size header. A pass loads the file,
    cuts 10 ms windows (about 100) and voxelizes each into 5 bins, then
    normalizes the nonzero entries.
    """

    layers = ("events",)
    n_events = 1_000_000
    span_s = 1.0
    window_s = 0.01
    bins = 5

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.random(self.n_events)) * self.span_s
        x = rng.integers(0, SENSOR_W, self.n_events)
        y = rng.integers(0, SENSOR_H, self.n_events)
        p = rng.integers(0, 2, self.n_events)  # on disk: 1 is ON, 0 is OFF
        path = workdir / "ingest_events.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {SENSOR_H} {SENSOR_W}\n")
            fh.writelines(map("{:.9f} {} {} {}\n".format,
                              t.tolist(), x.tolist(), y.tolist(), p.tolist()))
        return {"path": path, "polarity_sum": int(2 * p.sum() - self.n_events)}

    def measure(self, state, seconds):
        pass_times, phase_times = [], []
        attempted = failed = 0
        problems = []
        windows_per_pass = 0
        deadline = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            events_list, sensor = events.load_events(state["path"])
            t1 = time.perf_counter()
            h, w = sensor
            windows = events.split_windows(events_list, h, w, duration=self.window_s)
            t2 = time.perf_counter()
            grids = [events.encode_voxel_grid(win, self.bins) for win in windows]
            t3 = time.perf_counter()
            normalized = [events.normalize_nonzero(g) for g in grids]
            t4 = time.perf_counter()
            pass_times.append(t4 - t0)
            phase_times.append((t1 - t0, t2 - t1, t3 - t2, t4 - t3))
            windows_per_pass = len(windows)

            attempted += 2 + len(windows)
            if len(events_list) != self.n_events:
                failed += 1
                problems.append(f"parsed {len(events_list)} events, wrote {self.n_events}")
            if not _partitions(events_list, windows):
                failed += 1
                problems.append("windows do not partition the stream")
            polarity_total = 0.0
            for win, grid, norm in zip(windows, grids, normalized):
                p_sum = float(sum(ev.p for ev in win.events))
                polarity_total += p_sum
                if (abs(float(grid.data.sum()) - p_sum) > 1e-9
                        or grid.data.shape != (self.bins, h, w)
                        or not np.isfinite(norm.data).all()):
                    failed += 1
            if polarity_total != state["polarity_sum"]:
                problems.append("window polarity sums do not add up to the stream's")
            del events_list, windows, grids, normalized
            if time.perf_counter() >= deadline:
                break
        phases = [statistics.median(p) for p in zip(*phase_times)]
        return Measurement(
            steps=len(pass_times), executed=len(pass_times),
            step_ms=_median_ms(pass_times),
            throughput_per_s=self.n_events * len(pass_times) / sum(pass_times),
            attempted=attempted, failed=failed, problems=sorted(set(problems)),
            counts={"events": self.n_events, "windows": windows_per_pass},
            report={"ingest_events_per_s": self.n_events * len(pass_times) / sum(pass_times),
                    "passes": len(pass_times),
                    "windows": windows_per_pass,
                    "phase_ms": dict(zip(("load", "split", "voxelize", "normalize"),
                                         (1000.0 * s for s in phases))),
                    "pass_ms_samples": [round(1000.0 * s, 3) for s in pass_times]})


def _partitions(stream, windows, tol=1e-9):
    """Windows hold every event once, in order, each inside its window's
    span, and consecutive windows share their boundary (to `tol` seconds,
    since boundaries are computed as t_begin + i * duration)."""
    position = 0
    for i, win in enumerate(windows):
        chunk = win.events
        if not all(a is b for a, b in zip(chunk, stream[position:position + len(chunk)])):
            return False
        position += len(chunk)
        if chunk and not (win.t0 - tol <= chunk[0].t and chunk[-1].t <= win.t1 + tol):
            return False
        if i and not math.isclose(windows[i - 1].t1, win.t0, rel_tol=0.0, abs_tol=tol):
            return False
    return position == len(stream)


WORKLOADS = {"toy_train": ToyTrain, "sensor_reconstruct": SensorReconstruct,
             "ingest": Ingest}
