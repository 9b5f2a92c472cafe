"""Loss functions and the truncated-BPTT training loop.

The loss is computed every `loss_every` steps over that segment by
`total_loss` (L1 + 0.5 (1 - SSIM) reconstruction term plus flow-warped
temporal consistency from step `l0` on, reaching back to the previous
segment's detached last prediction); gradients flow through the whole
segment, then the recurrent state is detached at the boundary. The
epoch record's MSE/SSIM are read off that same loss: each prediction is
histogram-normalized and SSIM-scored once, on the tape.
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import quality
from .autodiff import Tensor
from .errors import ConfigError, DivergenceError, ShapeError, bounded, check_fields
from .events import (_duration_windows, encode_voxel_grid, normalize_nonzero,
                     slice_temporal_bins)
from .model import spike_rate
from .synthetic import generate_events


@dataclass
class TrainConfig:
    lr: float = bounded(0, default=0.002)
    batch: int = bounded(1, default=2)
    epochs: int = bounded(0, default=100)
    lambda_tc: float = bounded(0, default=1.0)
    l0: int = bounded(0, default=2)
    loss_every: int = bounded(1, default=5)
    seq_len: int = bounded(1, default=40)
    bins_per_window: int = bounded(1, default=1)

    def __post_init__(self):
        check_fields(self)


def _as_batch(x):
    t = ad.as_tensor(x)
    if t.ndim == 2:
        t = ad.reshape(t, (1, 1) + t.shape)
    if t.ndim != 4:
        raise ShapeError(f"expected (N,1,H,W) or (H,W), got {t.shape}")
    return t


def reconstruction_loss(pred, gt, scores=None):
    """L1 + 0.5 (1 - SSIM) between the histogram-normalized prediction and
    the ground-truth frame (already in [0, 1]). A `scores` list gets the
    prediction's (MSE, SSIM), the values `quality.score` gives."""
    pred, gt = _as_batch(pred), _as_batch(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"prediction {pred.shape} vs ground truth {gt.shape}")
    pred_n = quality.histogram_normalize(pred)
    l1 = (pred_n - gt).abs().mean()
    ssim = quality.ssim(pred_n, gt)
    if scores is not None:
        scores.append((quality.mse(pred_n.data, gt.data), ssim.item()))
    return l1 + 0.5 * (1.0 - ssim)


def temporal_consistency_loss(i_k, i_prev, flow):
    """Mean |I_k - warp(I_{k-1}, flow)| over all pixels.

    `flow` is the known integer (dy, dx) translation mapping frame k-1
    onto frame k; warping is a wrap-around roll, so every pixel is valid.
    """
    i_k, i_prev = _as_batch(i_k), _as_batch(i_prev)
    dy, dx = int(flow[0]), int(flow[1])
    return (i_k - ad.roll(i_prev, (dy, dx), axis=(2, 3))).abs().mean()


def total_loss(preds, gts, flows, cfg, prev_pred=None, step0=0, scores=None):
    """Sum of per-step reconstruction losses plus lambda-weighted temporal
    consistency for global steps k >= l0, one segment at a time.

    `preds[i]` is global step `step0 + i`; the temporal term of the
    segment's first step compares against `prev_pred`, the detached last
    prediction of the previous segment, and is skipped when there is none.
    A `scores` list gets each prediction's (MSE, SSIM), in step order.
    """
    if not (len(preds) == len(gts) == len(flows)):
        raise ShapeError("preds, gts, and flows must have equal length")
    loss = None
    for idx, (pred, gt) in enumerate(zip(preds, gts)):
        term = reconstruction_loss(pred, gt, scores)
        prev = preds[idx - 1] if idx > 0 else prev_pred
        if step0 + idx >= cfg.l0 and cfg.lambda_tc > 0 and prev is not None:
            term = term + cfg.lambda_tc * temporal_consistency_loss(pred, prev, flows[idx])
        loss = term if loss is None else loss + term
    return loss if loss is not None else Tensor(0.0)


def scene_to_bins(scene, n_bins=1):
    """Events -> per-frame-interval voxel bins, nonzero-normalized.

    Returns (bins, gts, flows) aligned per network step: every bin of
    window s, cut by the rule of `split_windows(duration=scene.dt)`,
    targets ground-truth frame s. Its first bin carries the flow from frame
    s-1 to frame s; the later bins share that frame, so their flow is
    (0, 0). With n_bins == 1 there is one step per frame interval.
    """
    events, frames, flows = generate_events(scene)
    windows = _duration_windows(events, scene.dt, 1, len(frames) - 1, *scene.texture.shape)
    bins, gts, step_flows = [], [], []
    for s, window in enumerate(windows, start=1):
        grid = normalize_nonzero(encode_voxel_grid(window, n_bins))
        bins += slice_temporal_bins(grid)
        gts += [frames[s]] * n_bins
        step_flows += [flows[s]] + [(0, 0)] * (n_bins - 1)
    return bins, gts, step_flows


def _batched_data(scenes, cfg):
    """Group per-scene step data into batches stacked along axis 0.

    The scenes of one batch share one flow per step, so they must have the
    same size, step count and flows; ConfigError names the first that does
    not.
    """
    per_scene = [scene_to_bins(s, cfg.bins_per_window) for s in scenes]
    batches = []
    for start in range(0, len(per_scene), cfg.batch):
        group = per_scene[start:start + cfg.batch]
        flows = group[0][2]
        size = scenes[start].texture.shape
        for index, (_, _, scene_flows) in enumerate(group[1:], start=start + 1):
            if scenes[index].texture.shape != size:
                raise ConfigError(f"scene {index} is {scenes[index].texture.shape}, but scene "
                                  f"{start}, the first of its batch, is {size}")
            if scene_flows != flows:
                raise ConfigError(f"scene {index} ({len(scene_flows)} steps) moves differently "
                                  f"from scene {start} ({len(flows)} steps), the first of its "
                                  "batch; batched scenes must share a trajectory")
        bins = [np.stack(planes)[:, None] for planes in zip(*(g[0] for g in group))]
        gts = [np.stack(frames)[:, None] for frames in zip(*(g[1] for g in group))]
        batches.append((bins, gts, flows))
    return batches


def train(net, scenes, cfg, log_path=None, progress=None):
    """Truncated-BPTT training; returns the per-epoch metrics log.

    Batching stacks scenes along the batch axis, so scenes grouped into
    one batch must share a trajectory (single-scene batches always work);
    each batch runs for its own step count.
    """
    batches = _batched_data(scenes, cfg)
    optimizer = ad.Adam(net.parameters(), lr=cfg.lr)
    history = []
    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        n_segments = 0
        spike_counts = {}
        scores = []  # (mse, ssim) of every prediction of the epoch
        for bins, gts, flows in batches:
            net.train_mode(True)
            net.reset_state()
            prev_pred = None  # detached tail of the previous segment
            steps = min(len(bins), cfg.seq_len)
            for seg_start in range(0, steps, cfg.loss_every):
                seg = slice(seg_start, min(seg_start + cfg.loss_every, steps))
                preds = [net.forward_step(plane, spike_counts) for plane in bins[seg]]
                loss = total_loss(preds, gts[seg], flows[seg], cfg,
                                  prev_pred=prev_pred, step0=seg_start, scores=scores)
                value = loss.item()
                if not np.isfinite(value):
                    raise DivergenceError(
                        f"loss became {value} at epoch {epoch}, step {seg_start}")
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                net.detach_state()
                prev_pred = preds[-1].detach()
                epoch_loss += value
                n_segments += 1
                del loss, preds  # the backward freed the graph; this drops the predictions
        mse_val, ssim_val = _mean_score(scores)
        record = {
            "epoch": epoch,
            "loss": epoch_loss / max(n_segments, 1),
            "mse": mse_val,
            "ssim": ssim_val,
            "spike_rate": spike_rate(spike_counts),
        }
        history.append(record)
        if progress is not None:
            progress(record)
    net.train_mode(False)
    if log_path is not None:
        write_metrics_csv(log_path, history)
    return history


def _mean_score(scores):
    """Mean (mse, ssim) of per-prediction scores; NaN for none."""
    mse_val, ssim_val = np.mean(scores, axis=0) if scores else (np.nan, np.nan)
    return float(mse_val), float(ssim_val)


def write_metrics_csv(path, history):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["epoch", "loss", "mse", "ssim", "spike_rate"])
        writer.writeheader()
        for row in history:
            writer.writerow(row)


def evaluate_reconstruction(net, bins, gts):
    """Histogram-normalized MSE/SSIM of a full forward pass vs the (H, W)
    ground-truth frames, averaged over the frames (SSIM is NaN below the
    SSIM window). Unequal numbers of bins and frames raise ShapeError."""
    if len(bins) != len(gts):
        raise ShapeError(f"{len(bins)} bins vs {len(gts)} ground-truth frames")
    images = net.forward_sequence(bins)
    return _mean_score([quality.score(img, gt) for img, gt in zip(images, gts)])
