"""Command-line pipeline: simulate scenes, voxelize event files, train,
reconstruct, probe the temporal receptive field, profile energy, and run
gradient checks. All outputs land under --out; runs are deterministic
given --seed."""

import argparse
import csv
import json
import re
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import energy as energy_mod
from . import quality
from .errors import ConfigError, EvreconError, ParseError, config_from_dict
from .events import encode_voxel_grid, load_events, save_events, split_windows, window_bins
from .model import Network, NetworkSpec, spike_rate
from .neurons import NeuronConfig, SpikingLayer, lif_step, mp_step, surrogate_grad
from .synthetic import SceneConfig, SyntheticScene, generate_events
from .training import TrainConfig, train


def write_pgm(path, img):
    """8-bit binary PGM; values in [0,1] scaled by 255, rounding half up."""
    data = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def read_pgm(path):
    """8-bit binary PGM (maxval 1-255) as floats in [0, 1], divided by its maxval."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise ParseError(f"{path}: not a binary PGM (expected 'P5 <width> <height> <maxval>')")
    w, h, maxval = map(int, header.groups())
    if w < 1 or h < 1:
        raise ParseError(f"{path}: PGM size {w}x{h} must be positive")
    if not 1 <= maxval <= 255:
        raise ParseError(f"{path}: PGM maxval {maxval} is not in 1-255 (only 8-bit samples are read)")
    payload = raw[header.end():]
    if len(payload) < h * w:
        raise ParseError(f"{path}: PGM data holds {len(payload)} bytes, expected {h * w}")
    img = np.frombuffer(payload, dtype=np.uint8, count=h * w).reshape(h, w)
    if img.max() > maxval:
        raise ParseError(f"{path}: PGM sample {img.max()} exceeds its maxval {maxval}")
    return img / float(maxval)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None


def _windows(events, sensor, args):
    if args.window_ms is None and args.window_count is None:
        raise ConfigError("give --window-ms or --window-count")
    duration = None if args.window_ms is None else args.window_ms / 1000.0
    return split_windows(events, *sensor, duration=duration, count=args.window_count)


def _network_windows(args, spec):
    """(window, its normalized bins) of each window of `--events` for a network
    of `spec`; a file without a size header is taken to be the spec's size."""
    events, sensor = load_events(args.events)
    return [(window, window_bins(window, args.bins))
            for window in _windows(events, sensor or (spec.height, spec.width), args)]


def _network_bins(args, spec):
    """The bins of `--events` for a network of `spec`, window after window."""
    return [b for _, bins in _network_windows(args, spec) for b in bins]


# -- commands ----------------------------------------------------------------

def cmd_simulate(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = (config_from_dict(SceneConfig, _load_json(args.config), args.config)
           if args.config else SceneConfig())
    scene = cfg.scene(np.random.default_rng(args.seed))
    events, frames, _ = generate_events(scene)
    h, w = scene.texture.shape
    save_events(out / "events.txt", events, sensor_h=h, sensor_w=w)
    for i, frame in enumerate(frames):
        write_pgm(out / f"gt_{i:04d}.pgm", frame)
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(dict(asdict(scene), texture=scene.texture.tolist()), fh)
    print(f"wrote {len(events)} events and {len(frames)} frames to {out}")
    return 0


def cmd_voxelize(args):
    events, sensor = load_events(args.events)
    if sensor is None:
        if args.height is None or args.width is None:
            raise ConfigError("event file has no size header; pass --height/--width")
        sensor = (args.height, args.width)
    h, w = sensor
    windows = _windows(events, sensor, args)
    tensors = {}
    spans = []
    for i, window in enumerate(windows):
        grid = encode_voxel_grid(window, args.bins)
        tensors[f"grid_{i:04d}"] = grid.data
        spans.append([grid.t0, grid.t1])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    ckpt.save_tensors(out, tensors,
                      meta={"bins": args.bins, "height": h, "width": w, "spans": spans})
    print(f"wrote {len(windows)} voxel grids to {out}")
    return 0


def cmd_train(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = config_from_dict(NetworkSpec, _load_json(args.spec), args.spec)
    cfg = (config_from_dict(TrainConfig, _load_json(args.train_config), args.train_config)
           if args.train_config else TrainConfig())
    if args.epochs is not None:
        cfg = replace(cfg, epochs=args.epochs)
    meta_path = Path(args.data) / "meta.json"
    scene = config_from_dict(SyntheticScene, _load_json(meta_path), meta_path)
    net = Network(spec, seed=args.seed)
    train(net, [scene], cfg, log_path=out / "metrics.csv",
          progress=lambda r: print(f"epoch {r['epoch']}: loss {r['loss']:.4f} "
                                   f"mse {r['mse']:.4f}"))
    net.save(out / "checkpoint.spkt")
    print(f"saved checkpoint to {out / 'checkpoint.spkt'}")
    return 0


def cmd_reconstruct(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    net = Network.load(args.checkpoint)
    images = net.forward_sequence(_network_bins(args, net.spec))
    for i, img in enumerate(images):
        write_pgm(out / f"recon_{i:04d}.pgm", quality.histogram_normalize(img).data)
    print(f"wrote {len(images)} reconstructions to {out}")
    return 0


def _ground_truth(gt_dir, windows, duration, spec):
    """The frame of each window: window k, which ends at k * duration, leads
    to gt_k.pgm, as in scene_to_bins."""
    frames = {p.name: read_pgm(p) for p in sorted(gt_dir.glob("gt_*.pgm"))}
    if not frames:
        raise ConfigError(f"{gt_dir}: no gt_*.pgm files to score against")
    for name, frame in frames.items():
        if frame.shape != (spec.height, spec.width):
            raise ConfigError(f"{gt_dir / name}: frame is {frame.shape[0]}x{frame.shape[1]}, "
                              f"the network reconstructs {spec.height}x{spec.width}")
    names = [f"gt_{round(window.t1 / duration):04d}.pgm" for window, _ in windows]
    missing = [name for name in names if name not in frames]
    if missing:
        raise ConfigError(f"{gt_dir}: no {missing[0]} to score its window against")
    return [frames[name] for name in names]


def cmd_probe(args):
    if args.gt and args.window_count is not None:
        raise ConfigError("probe --gt scores each window against the frame at its end, "
                          "so it takes --window-ms, not --window-count")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    net = Network.load(args.checkpoint)
    windows = _network_windows(args, net.spec)
    targets = (_ground_truth(Path(args.gt), windows, args.window_ms / 1000.0, net.spec)
               if args.gt else [None] * len(windows))
    feed = [(plane, gt) for (_, bins), gt in zip(windows, targets) for plane in bins]

    rows = []
    net.reset_state()
    with ad.no_grad():
        for i, (plane, gt) in enumerate(feed):
            spike_counts = {}
            img = net.forward_step(plane if i < args.cutoff else np.zeros_like(plane),
                                   spike_counts).data[0, 0]
            mse, ssim = ("", "") if gt is None else quality.score(img, gt)
            rows.append({"step": i, "mse": mse, "ssim": ssim, "spike_rate": spike_rate(spike_counts),
                         "after_cutoff": int(i >= args.cutoff)})
    csv_path = out / "probe.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["step", "mse", "ssim",
                                                "spike_rate", "after_cutoff"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {csv_path}")
    return 0


def cmd_profile(args):
    if args.paper_rates:
        name = args.paper_rates
        if name not in energy_mod.PUBLISHED:
            raise ConfigError(f"unknown operating point {name!r}; "
                              f"choose from {sorted(energy_mod.PUBLISHED)}")
        p = energy_mod.PUBLISHED[name]
        joules = energy_mod.energy_from_totals(p["op_ann"], p["op_snn"], p["rate"])
        ref = energy_mod.PUBLISHED["e2vid-lstm"]
        ref_joules = energy_mod.energy_from_totals(ref["op_ann"], ref["op_snn"], ref["rate"])
        result = {"operating_point": name, "energy_joules": joules,
                  "normalized_energy": joules / ref_joules}
        if p["op_snn"] > 0:
            result["ann_snn_ratio"] = energy_mod.ann_snn_ratio(
                1.0, p["rate"], p["mp_fraction"])
        print(json.dumps(result, indent=2))
        return 0

    net = None
    if args.checkpoint:
        net = Network.load(args.checkpoint)
        spec = net.spec
    elif args.spec:
        spec = config_from_dict(NetworkSpec, _load_json(args.spec), args.spec)
    else:
        raise ConfigError("give --checkpoint, --spec, or --paper-rates")
    counts = energy_mod.count_ann_ops(spec)
    stats = None
    empty_rate = None
    if args.events:
        if net is None:  # only measured spike rates need a network
            net = Network(spec, seed=args.seed)
        stats = energy_mod.measure_spike_rates(net, [_network_bins(args, spec)],
                                               op_counts=counts)
        empty_bins = [np.zeros((spec.height, spec.width))] * 10
        empty_stats = energy_mod.measure_spike_rates(net, [empty_bins], op_counts=counts)
        empty_rate = empty_stats.overall_neuron_weighted
    report = energy_mod.estimate_energy(counts, stats, empty_input_rate=empty_rate)
    print(energy_mod.format_report(counts, report, stats))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "energy.json", "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    return 0


def cmd_gradcheck(args):
    rng = np.random.default_rng(args.seed)
    rows = []

    def check(name, f, x, tol=1e-4):
        err = ad.finite_difference_check(f, ad.Tensor(x))
        rows.append((name, err, tol, err < tol))

    x = rng.standard_normal((2, 3))
    check("sum_of_squares", lambda t: (t * t).sum(), x, tol=1e-6)
    check("sigmoid_mean", lambda t: ad.sigmoid(t).mean(), x)
    w = rng.standard_normal((2, 2, 3, 3)) * 0.5
    xin = rng.standard_normal((1, 2, 5, 5))
    check("conv_sigmoid", lambda t: ad.sigmoid(ad.conv2d(t, ad.Tensor(w), padding=1)).sum(), xin)
    check("upsample", lambda t: (ad.upsample_nearest2x(t) ** 2.0).sum(), xin)
    w5 = ad.Tensor(rng.standard_normal((2, 2, 5, 5)) * 0.3)
    check("upsample_conv", lambda t: (ad.upsample2x_conv2d(t, w5) ** 2.0).sum(), xin)

    # all-MP toy chain (smooth end to end)
    def mp_chain(t):
        v = ad.Tensor(np.zeros(t.shape))
        loss = None
        for _ in range(3):
            out, v = mp_step(v, t, 2.0)
            term = (out * out).sum()
            loss = term if loss is None else loss + term
        return loss
    check("mp_lif_3step", mp_chain, rng.standard_normal(4))

    # frozen-spike-pattern analytic check on a 3-step scalar LIF chain
    ncfg = NeuronConfig(kind="LIF", tau=2.0)
    w0 = 0.7
    xs = [1.3, 0.2, 0.9]
    def lif_loss(wt):
        v = ad.Tensor(0.0)
        total = None
        for xv in xs:
            s, v = lif_step(v, wt * xv, ncfg)
            total = s if total is None else total + s
        return total
    wt = ad.Tensor(np.array(w0), requires_grad=True)
    lif_loss(wt).backward()
    analytic = float(wt.grad)
    manual = _manual_lif_grad(w0, xs, ncfg)
    rows.append(("lif_3step_surrogate", abs(analytic - manual), 1e-10,
                 abs(analytic - manual) < 1e-10))

    check("constant_loss", lambda t: (t * 0.0).sum(), rng.standard_normal(3), tol=1e-8)
    gt = rng.random((12, 12))
    check("ssim_loss", lambda t: 0.5 * (1.0 - quality.ssim(t, gt)), rng.random((12, 12)))
    # both conv kernel forms; drawn last so the rows above keep their inputs
    w2 = ad.Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.4)
    check("conv_stride2", lambda t: (ad.conv2d(t, w2, stride=2, padding=1) ** 2.0).sum(),
          rng.standard_normal((1, 2, 5, 7)))
    w_narrow = ad.Tensor(rng.standard_normal((1, 4, 3, 3)) * 0.4)
    check("conv_narrow", lambda t: (ad.conv2d(t, w_narrow, padding=1) ** 2.0).sum(),
          rng.standard_normal((1, 4, 5, 6)))
    # the fused ops; drawn after the rows above as well
    gamma, beta = ad.Tensor(rng.uniform(0.5, 1.5, 3)), ad.Tensor(rng.standard_normal(3))
    w_bn = rng.standard_normal((2, 3, 4, 4))
    check("batch_norm_train", lambda t: (ad.batch_norm2d(
        t, gamma, beta, np.zeros(3), np.ones(3), training=True) ** 2.0 * w_bn).sum(),
          rng.standard_normal((2, 3, 4, 4)))
    # a PLIF chain's potentials by its weight (1/tau = sigmoid(w)): the reset
    # gate is a constant and no spike flips within the difference step
    plif = SpikingLayer(NeuronConfig(kind="PLIF"))
    plif_xs = rng.standard_normal((3, 6)) * 1.5

    def plif_chain(t):
        plif.reset_state()
        plif.plif_w = t
        loss = None
        for xv in plif_xs:
            plif.step(ad.Tensor(xv))
            term = (plif.state * plif.state).sum()
            loss = term if loss is None else loss + term
        return loss
    check("plif_3step", plif_chain, rng.standard_normal(()))

    ok = True
    print(f"{'check':<24}{'max_err':>12}{'tol':>10}  status")
    for name, err, tol, passed in rows:
        ok &= passed
        print(f"{name:<24}{err:>12.3e}{tol:>10.0e}  {'pass' if passed else 'FAIL'}")
    return 0 if ok else 1


def _manual_lif_grad(w, xs, cfg):
    """Hand-unrolled surrogate-chain gradient of sum of spikes w.r.t. w."""
    v = 0.0
    grad_total = 0.0
    dv_dw = 0.0
    for xv in xs:
        v_charge = v + (1.0 / cfg.tau) * (-(v - cfg.v_rest) + w * xv)
        dvc_dw = (1.0 - 1.0 / cfg.tau) * dv_dw + (1.0 / cfg.tau) * xv
        s = 1.0 if v_charge - cfg.v_th >= 0 else 0.0
        grad_total += surrogate_grad(v_charge - cfg.v_th) * dvc_dw
        # reset gate is constant during backward
        v = cfg.v_reset if s == 1.0 else v_charge
        dv_dw = 0.0 if s == 1.0 else dvc_dw
    return grad_total


# -- argument parsing --------------------------------------------------------

def _non_negative_int(text):
    """An integer >= 0, the type of `--seed`, `--epochs` and `--cutoff`."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _add_window_flags(p):
    p.add_argument("--bins", type=int, default=5)
    window = p.add_mutually_exclusive_group()
    window.add_argument("--window-ms", type=float, default=None)
    window.add_argument("--window-count", type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(prog="evrecon",
                                     description=__doc__)
    parser.add_argument("--seed", type=_non_negative_int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scene: events + frames")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("voxelize", help="encode an event file into voxel grids")
    p.add_argument("--events", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    _add_window_flags(p)
    p.set_defaults(func=cmd_voxelize)

    p = sub.add_parser("train", help="train a network on simulated data")
    p.add_argument("--spec", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--train-config", default=None)
    p.add_argument("--epochs", type=_non_negative_int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reconstruct", help="run a checkpoint over an event file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--out", required=True)
    _add_window_flags(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("probe", help="empty-input probe of the temporal receptive field")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--cutoff", type=_non_negative_int, required=True)
    p.add_argument("--gt", default=None)
    p.add_argument("--out", required=True)
    _add_window_flags(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("profile", help="synaptic-op counts and energy estimate")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--spec", default=None)
    p.add_argument("--events", default=None)
    p.add_argument("--paper-rates", default=None,
                   help="published operating point: evsnn, pa-evsnn, e2vid-lstm, e2vid-gru")
    p.add_argument("--out", default=None)
    _add_window_flags(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EvreconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing or unreadable input, an unwritable output
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a legal 65535 x 65535 sensor at 5 bins needs 172 GB
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
