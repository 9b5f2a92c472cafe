import tracemalloc

import numpy as np
import pytest

from evrecon import training
from evrecon.autodiff import Tensor
from evrecon.errors import ConfigError, ShapeError
from evrecon.events import (Event, EventWindow, encode_voxel_grid, slice_temporal_bins,
                            split_windows, window_bins)
from evrecon.model import Network, NetworkSpec
from evrecon.synthetic import SyntheticScene, generate_events, random_scene, scene_frames
from evrecon.quality import score
from evrecon.training import (TrainConfig, evaluate_reconstruction,
                              reconstruction_loss, scene_to_bins,
                              temporal_consistency_loss, total_loss, train,
                              write_metrics_csv)
from test_events import oracle_normalize_nonzero


def tiny_net(seed=0):
    return Network(NetworkSpec(height=16, width=16, n_channels=4,
                               n_encoders=2, n_residual=1), seed=seed)


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 0.002 and cfg.loss_every == 5 and cfg.lambda_tc == 1.0

    def test_invalid(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=-1)
        with pytest.raises(ConfigError):
            TrainConfig(lr=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(lambda_tc=-1.0)

    def test_zero_epochs_is_valid(self):
        assert TrainConfig(epochs=0).epochs == 0

    @pytest.mark.parametrize("field,value,rule", [
        ("batch", 0, "positive"), ("loss_every", 0, "positive"), ("seq_len", -2, "positive"),
        ("bins_per_window", 0, "positive"), ("epochs", -1, "non-negative"),
        ("lr", -0.1, "non-negative"), ("lambda_tc", -1.0, "non-negative"),
        ("l0", -1, "non-negative")])
    def test_range_error_names_field(self, field, value, rule):
        least = {"positive": 1, "non-negative": 0}[rule]
        with pytest.raises(ConfigError,
                           match=rf"^TrainConfig\.{field} must be >= {least}, got {value}$"):
            TrainConfig(**{field: value})


    @pytest.mark.parametrize("field,value", [
        ("epochs", "3"), ("lr", "0.1"), ("batch", 1.5), ("l0", True)])
    def test_wrong_type_names_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["lr", "lambda_tc"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400])
    def test_non_finite_names_field(self, field, value):
        with pytest.raises(ConfigError, match=f"TrainConfig.{field} must be finite"):
            TrainConfig(**{field: value})


class TestReconstructionLoss:
    def test_perfect_prediction_near_zero(self):
        rng = np.random.default_rng(111)
        gt = rng.random((16, 16))
        # a prediction that is an affine map of gt normalizes onto it almost
        # exactly, so the loss collapses toward zero
        loss = reconstruction_loss(Tensor(gt * 4.0 - 1.0), gt)
        assert loss.item() < 0.1

    def test_wrong_prediction_larger(self):
        rng = np.random.default_rng(112)
        gt = rng.random((16, 16))
        good = reconstruction_loss(Tensor(gt.copy()), gt).item()
        bad = reconstruction_loss(Tensor(rng.random((16, 16))), gt).item()
        assert bad > good

    def test_differentiable(self):
        rng = np.random.default_rng(113)
        pred = Tensor(rng.random((1, 1, 16, 16)), requires_grad=True)
        reconstruction_loss(pred, rng.random((1, 1, 16, 16))).backward()
        assert pred.grad is not None
        assert np.abs(pred.grad).sum() > 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruction_loss(Tensor(np.zeros((8, 8))), np.zeros((9, 9)))


class TestTemporalConsistency:
    def test_exact_warp_zero_loss(self):
        rng = np.random.default_rng(114)
        prev = rng.random((12, 12))
        flow = (2, -1)
        cur = np.roll(prev, flow, axis=(0, 1))
        loss = temporal_consistency_loss(Tensor(cur), Tensor(prev), flow)
        assert loss.item() == 0.0

    def test_zero_flow_is_plain_l1(self):
        rng = np.random.default_rng(115)
        a, b = rng.random((8, 8)), rng.random((8, 8))
        loss = temporal_consistency_loss(Tensor(a), Tensor(b), (0, 0))
        assert loss.item() == pytest.approx(np.abs(a - b).mean(), abs=1e-12)

    def test_gradient_flows_to_both_frames(self):
        rng = np.random.default_rng(116)
        cur = Tensor(rng.random((1, 1, 6, 6)), requires_grad=True)
        prev = Tensor(rng.random((1, 1, 6, 6)), requires_grad=True)
        temporal_consistency_loss(cur, prev, (1, 1)).backward()
        assert np.abs(cur.grad).sum() > 0 and np.abs(prev.grad).sum() > 0


class TestTotalLoss:
    def test_tc_kicks_in_after_l0(self):
        rng = np.random.default_rng(117)
        preds = [Tensor(rng.random((16, 16))) for _ in range(4)]
        gts = [rng.random((16, 16)) for _ in range(4)]
        flows = [(0, 0)] * 4
        cfg_tc = TrainConfig(l0=2, lambda_tc=1.0)
        cfg_no = TrainConfig(l0=2, lambda_tc=0.0)
        assert total_loss(preds, gts, flows, cfg_tc).item() > \
            total_loss(preds, gts, flows, cfg_no).item()

    def test_l0_beyond_sequence_means_no_tc(self):
        rng = np.random.default_rng(118)
        preds = [Tensor(rng.random((16, 16))) for _ in range(3)]
        gts = [rng.random((16, 16)) for _ in range(3)]
        flows = [(0, 0)] * 3
        with_tc = total_loss(preds, gts, flows, TrainConfig(l0=10, lambda_tc=1.0))
        without = total_loss(preds, gts, flows, TrainConfig(l0=0, lambda_tc=0.0))
        assert with_tc.item() == pytest.approx(without.item(), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            total_loss([Tensor(np.zeros((16, 16)))], [], [], TrainConfig())

    def test_first_step_has_no_predecessor(self):
        # with l0=0 the first step has nothing to be consistent with
        rng = np.random.default_rng(120)
        preds = [Tensor(rng.random((16, 16))) for _ in range(3)]
        gts = [rng.random((16, 16)) for _ in range(3)]
        flows = [(0, 0)] * 3
        l0_zero = total_loss(preds, gts, flows, TrainConfig(l0=0, lambda_tc=1.0))
        l0_one = total_loss(preds, gts, flows, TrainConfig(l0=1, lambda_tc=1.0))
        assert l0_zero.item() == l0_one.item()

    def test_segment_reaches_back_to_previous_tail(self):
        rng = np.random.default_rng(121)
        prev, cur = Tensor(rng.random((16, 16))), Tensor(rng.random((16, 16)))
        gt = rng.random((16, 16))
        cfg = TrainConfig(l0=2, lambda_tc=0.5)
        expected = (reconstruction_loss(cur, gt)
                    + 0.5 * temporal_consistency_loss(cur, prev, (1, 0))).item()
        got = total_loss([cur], [gt], [(1, 0)], cfg, prev_pred=prev, step0=2).item()
        assert got == expected
        # before l0 the tail is ignored
        early = total_loss([cur], [gt], [(1, 0)], cfg, prev_pred=prev, step0=1).item()
        assert early == reconstruction_loss(cur, gt).item()


class TestSegmentMetrics:
    """`quality.score`, the oracle of the training record's MSE/SSIM."""

    def test_ssim_finite_at_32x32(self):
        rng = np.random.default_rng(7)
        mse, ssim = score(rng.random((1, 1, 32, 32)), rng.random((1, 1, 32, 32)))
        assert np.isfinite(mse) and np.isfinite(ssim)

    def test_ssim_nan_below_the_window(self):
        rng = np.random.default_rng(8)
        mse, ssim = score(rng.random((1, 1, 8, 8)), rng.random((1, 1, 8, 8)))
        assert np.isfinite(mse) and np.isnan(ssim)

    def test_other_ssim_errors_propagate(self, monkeypatch):
        def broken(a, b):
            raise RuntimeError("ssim broke")

        monkeypatch.setattr(training.quality, "ssim", broken)
        rng = np.random.default_rng(9)
        with pytest.raises(RuntimeError, match="ssim broke"):
            score(rng.random((1, 1, 32, 32)), rng.random((1, 1, 32, 32)))


class TestSceneToBins:
    def test_alignment(self):
        scene = random_scene(16, 16, 6, np.random.default_rng(119), contrast=0.1)
        bins, gts, flows = scene_to_bins(scene)
        assert len(bins) == len(gts) == len(flows) == 5
        assert flows == scene_frames(scene)[1][1:]
        assert bins[0].shape == (16, 16)
        assert gts[0].shape == (16, 16)

    def test_multi_bin_windows(self):
        scene = random_scene(16, 16, 4, np.random.default_rng(120), contrast=0.1)
        bins, gts, _ = scene_to_bins(scene, n_bins=3)
        assert len(bins) == 3 * 3
        # all bins of one window share that window's ground truth
        assert np.array_equal(gts[0], gts[1]) and np.array_equal(gts[1], gts[2])

    def test_sub_bins_of_a_window_keep_still(self):
        # every sub-bin was tagged with its window's frame shift, so the
        # temporal term rolled the previous prediction although both steps
        # target the same frame: ground-truth predictions scored 0.136-0.148
        scene = random_scene(16, 16, 4, np.random.default_rng(120), contrast=0.1)
        _, frame_flows = scene_frames(scene)
        _, gts, flows = scene_to_bins(scene, n_bins=3)
        assert flows == [f for s in range(1, 4) for f in [frame_flows[s], (0, 0), (0, 0)]]
        assert any(f != (0, 0) for f in frame_flows[1:])
        for k in range(1, len(gts)):
            tc = temporal_consistency_loss(Tensor(gts[k]), Tensor(gts[k - 1]), flows[k])
            assert tc.item() == 0.0, k


def oracle_scene_to_bins(scene, n_bins=1):
    """The per-frame filter `scene_to_bins` replaced: every window scans
    the whole stream for t0 < t <= t1. Its grids are normalized by the
    boolean-mask oracle."""
    events, frames, flows = generate_events(scene)
    h, w = scene.texture.shape
    bins = []
    for s in range(1, len(frames)):
        t0, t1 = (s - 1) * scene.dt, s * scene.dt
        window = EventWindow([ev for ev in events if t0 < ev.t <= t1], t0, t1, h, w)
        bins += slice_temporal_bins(oracle_normalize_nonzero(encode_voxel_grid(window, n_bins)))
    return bins


class TestSceneToBinsOracle:
    @pytest.mark.parametrize("n_bins", [1, 3])
    def test_bins_equal_the_filter(self, n_bins):
        scene = random_scene(32, 32, 41, np.random.default_rng(3), contrast=0.1)
        bins, _, _ = scene_to_bins(scene, n_bins)
        want = oracle_scene_to_bins(scene, n_bins)
        assert len(bins) == len(want) == 40 * n_bins
        for got, ref in zip(bins, want):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_events_on_window_edges(self, monkeypatch):
        # t0 < t <= t1: an event at t1 belongs to the window that ends there,
        # and one at t = 0 to window 1, closed on its left too
        scene = random_scene(4, 4, 4, np.random.default_rng(0), contrast=0.1)
        dt = scene.dt
        times = [0.0, dt, dt, 2 * dt, 2.5 * dt, 3 * dt, 3.5 * dt]
        stream = [Event(t, 1, 2, 1) for t in times]
        monkeypatch.setattr(training, "generate_events",
                            lambda sc: (stream,) + generate_events(sc)[1:])
        windows = []
        monkeypatch.setattr(training, "window_bins",
                            lambda w, n: windows.append(w) or window_bins(w, n))
        scene_to_bins(scene)
        assert [[ev.t for ev in w.events] for w in windows] == [
            [0.0, dt, dt], [2 * dt], [2.5 * dt, 3 * dt]]

    def test_inference_windows_equal_the_training_windows(self, monkeypatch):
        # split_windows(duration=) used to start at the first event, which
        # put 25 of the criterion-3 scene's 57,941 events in another window
        scene = random_scene(32, 32, 41, np.random.default_rng(42), contrast=0.1)
        trained = []
        monkeypatch.setattr(training, "window_bins",
                            lambda w, n: trained.append(w) or window_bins(w, n))
        scene_to_bins(scene)
        cut = split_windows(generate_events(scene)[0], 32, 32, duration=scene.dt)
        per_event = [[i for i, w in enumerate(windows) for _ in w.events]
                     for windows in (trained, cut)]
        assert len(per_event[0]) == len(per_event[1]) == 57941
        assert sum(a != b for a, b in zip(*per_event)) == 0
        assert [(w.t0, w.t1) for w in cut] == [(w.t0, w.t1) for w in trained]


class TestBatchedData:
    @staticmethod
    def scene(trajectory, seed=0, size=(8, 8)):
        texture = np.random.default_rng(seed).random(size)
        return SyntheticScene(texture=texture, trajectory=trajectory, contrast=0.1)

    def test_scenes_sharing_a_trajectory_stack(self):
        traj = [(0, 1), (1, 0), (1, 1)]
        (batch,) = training._batched_data([self.scene(traj, 1), self.scene(traj, 2)],
                                          TrainConfig(batch=2))
        bins, gts, flows = batch
        assert len(bins) == len(gts) == len(flows) == 3
        assert bins[0].shape == (2, 1, 8, 8)
        assert flows == traj

    def test_each_batch_keeps_its_own_length(self):
        # the shorter scene used to cut every batch to its length
        batches = training._batched_data([self.scene([(0, 1)] * 2), self.scene([(1, 0)] * 5)],
                                         TrainConfig(batch=1, bins_per_window=2))
        assert [len(bins) for bins, _, _ in batches] == [4, 10]

    @pytest.mark.parametrize("second", [[(0, 1), (0, 1)], [(0, 1), (1, 0), (0, 1)]])
    def test_batch_of_differing_scenes_rejected(self, second):
        # different flows: the batch used to warp every scene with scene 0's
        # flows; different lengths: it was cut to the shortest scene
        scenes = [self.scene([(0, 1), (1, 0)])] * 3 + [self.scene(second)]
        with pytest.raises(ConfigError, match=r"scene 3 .*scene 2"):
            training._batched_data(scenes, TrainConfig(batch=2))

    def test_batch_of_differing_sizes_rejected(self):
        # np.stack used to fail with a raw ValueError
        scenes = [self.scene([(0, 1)]), self.scene([(0, 1)], size=(8, 10))]
        with pytest.raises(ConfigError, match=r"scene 1 is \(8, 10\), but scene 0, .* is \(8, 8\)"):
            training._batched_data(scenes, TrainConfig(batch=2))


class TestTrainLoop:
    def test_loss_decreases_on_toy_problem(self):
        scene = random_scene(16, 16, 11, np.random.default_rng(121), contrast=0.1)
        net = tiny_net()
        cfg = TrainConfig(batch=1, epochs=15, seq_len=10)
        history = train(net, [scene], cfg)
        assert len(history) == 15
        first = np.mean([h["loss"] for h in history[:3]])
        last = np.mean([h["loss"] for h in history[-3:]])
        assert last < first

    def test_zero_lr_leaves_parameters_unchanged(self):
        scene = random_scene(16, 16, 6, np.random.default_rng(122), contrast=0.1)
        net = tiny_net()
        before = [p.data.copy() for p in net.parameters()]
        train(net, [scene], TrainConfig(batch=1, epochs=1, seq_len=5, lr=0.0))
        for p, b in zip(net.parameters(), before):
            np.testing.assert_array_equal(p.data, b)

    def test_deterministic(self):
        def run():
            scene = random_scene(16, 16, 6, np.random.default_rng(123), contrast=0.1)
            net = tiny_net(seed=1)
            hist = train(net, [scene], TrainConfig(batch=1, epochs=2, seq_len=5))
            return hist[-1]["loss"]

        assert run() == run()

    def test_history_fields_and_csv(self, tmp_path):
        scene = random_scene(16, 16, 6, np.random.default_rng(124), contrast=0.1)
        path = tmp_path / "metrics.csv"
        history = train(tiny_net(), [scene],
                        TrainConfig(batch=1, epochs=2, seq_len=5),
                        log_path=path)
        assert set(history[0]) == {"epoch", "loss", "mse", "ssim", "spike_rate"}
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,mse,ssim,spike_rate"
        assert len(lines) == 3

    def test_epoch_metrics_score_every_prediction(self, monkeypatch):
        # they used to score only the last segment of the last batch; the loss
        # now scores each prediction, and must give what quality.score gives
        captured = []

        def capturing_loss(pred, gt, scores=None):
            captured.append((pred.data.copy(), gt))
            return reconstruction_loss(pred, gt, scores)

        monkeypatch.setattr(training, "reconstruction_loss", capturing_loss)
        traj = [(0, 1), (1, 0), (1, 1), (0, 1), (1, 0)]
        scenes = [SyntheticScene(texture=np.random.default_rng(s).random((16, 16)),
                                 trajectory=traj, contrast=0.1) for s in (1, 2)]
        history = train(tiny_net(), scenes, TrainConfig(batch=2, epochs=2, seq_len=5,
                                                        loss_every=2))
        assert len(captured) == 2 * 5  # five two-frame predictions per epoch
        assert all(pred.shape == (2, 1, 16, 16) for pred, _ in captured)
        for epoch, record in enumerate(history):
            mses, ssims = zip(*(score(p, g) for p, g in captured[5 * epoch:5 * epoch + 5]))
            assert record["mse"] == np.mean(mses)
            assert record["ssim"] == np.mean(ssims)

    def test_training_never_calls_the_metric_scorer(self, monkeypatch):
        # every prediction was normalized and SSIM-scored a second time for the record
        def refuse(pred, gt):
            raise AssertionError("train called quality.score")

        monkeypatch.setattr(training.quality, "score", refuse)
        scene = random_scene(16, 16, 6, np.random.default_rng(129), contrast=0.1)
        history = train(tiny_net(), [scene], TrainConfig(batch=1, epochs=2, seq_len=5,
                                                         loss_every=2))
        assert all(np.isfinite(r["mse"]) and np.isfinite(r["ssim"]) for r in history)

    def test_progress_callback(self):
        scene = random_scene(16, 16, 6, np.random.default_rng(125), contrast=0.1)
        seen = []
        train(tiny_net(), [scene], TrainConfig(batch=1, epochs=3, seq_len=5),
              progress=seen.append)
        assert [r["epoch"] for r in seen] == [0, 1, 2]

    def test_network_left_in_eval_mode(self):
        scene = random_scene(16, 16, 6, np.random.default_rng(126), contrast=0.1)
        net = tiny_net()
        train(net, [scene], TrainConfig(batch=1, epochs=1, seq_len=5))
        assert not net.training



@pytest.mark.slow
def test_full_scale_segment_memory():
    # a 2-step 180x240 EVSNN training segment; the unfused neuron and
    # batch-norm ops kept 2615 MB alive at its peak, the fused ones 1165 MB
    net = Network(NetworkSpec(height=180, width=240), seed=0)
    net.train_mode(True)
    rng = np.random.default_rng(0)
    bins = [rng.standard_normal((180, 240)) * (rng.random((180, 240)) < 0.1) for _ in range(2)]
    gts = [rng.random((180, 240)) for _ in range(2)]
    tracemalloc.start()
    try:
        preds = [net.forward_step(b) for b in bins]
        total_loss(preds, gts, [(0, 1)] * 2, TrainConfig()).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in net.parameters())
    assert peak < 1.5e9

def test_backward_stays_within_the_forward_peak():
    # the backward frees each saved array once its last reader has run, so
    # above the forward's peak it holds little more than the parameter
    # gradients; keeping the whole graph to the end added 121 MiB here
    net = Network(NetworkSpec(height=64, width=64), seed=0)
    net.train_mode(True)
    rng = np.random.default_rng(0)
    bins = [rng.standard_normal((64, 64)) * (rng.random((64, 64)) < 0.1) for _ in range(3)]
    gts = [rng.random((64, 64)) for _ in range(3)]
    tracemalloc.start()
    try:
        preds = [net.forward_step(b) for b in bins]
        loss = total_loss(preds, gts, [(0, 1)] * 3, TrainConfig())
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loss.backward()
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grad_bytes = sum(p.grad.nbytes for p in net.parameters())
    assert backward_peak - forward_peak <= grad_bytes + 8 * 2**20


class TestEvaluate:
    def test_untrained_network_metrics_finite(self):
        scene = random_scene(16, 16, 6, np.random.default_rng(127), contrast=0.1)
        bins, gts, _ = scene_to_bins(scene)
        m, s = evaluate_reconstruction(tiny_net(), bins, gts)
        assert np.isfinite(m) and np.isfinite(s)
        assert 0.0 <= m <= 1.0 and -1.0 <= s <= 1.0

    def test_unequal_lengths_raise(self):
        # zip scored only as many frames as the shorter list held
        scene = random_scene(16, 16, 6, np.random.default_rng(127), contrast=0.1)
        bins, gts, _ = scene_to_bins(scene)
        with pytest.raises(ShapeError, match=f"{len(bins)} bins vs {len(bins) - 1} ground-truth"):
            evaluate_reconstruction(tiny_net(), bins, gts[:-1])

    def test_ssim_nan_below_the_window(self):
        # this raised ShapeError; the training record already gave NaN
        scene = random_scene(8, 8, 4, np.random.default_rng(128), contrast=0.1)
        bins, gts, _ = scene_to_bins(scene)
        net = Network(NetworkSpec(height=8, width=8, n_channels=4, n_encoders=2,
                                  n_residual=1), seed=0)
        m, s = evaluate_reconstruction(net, bins, gts)
        assert np.isfinite(m) and np.isnan(s)
