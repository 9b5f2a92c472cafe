"""Acceptance suite: nine numbered criteria, one pass/fail line each.

Each test prints its verdict to the real terminal (capture suspended via
`capfd.disabled()`) so a `pytest -v` run shows one line per criterion
regardless of verbosity.
"""

import time

import numpy as np
import pytest

from evrecon import autodiff as ad
from evrecon.autodiff import Tensor
from evrecon.energy import PUBLISHED, ann_snn_ratio, energy_from_totals
from evrecon.events import Event, EventWindow, encode_voxel_grid
from evrecon.model import Network, NetworkSpec, skip_connect
from evrecon.neurons import (AmpBlockParams, NeuronConfig, amp_compute_tau,
                             amp_lif_step, if_step, lif_step, mp_step,
                             plif_tau, surrogate_grad)
from evrecon.synthetic import random_scene
from evrecon.training import (TrainConfig, evaluate_reconstruction,
                              scene_to_bins, train)


def _report(capfd, num, name, elapsed, limit):
    line = (f"ACCEPTANCE {num} {name}: PASS "
            f"({elapsed:.2f}s, limit {limit:.0f}s)")
    with capfd.disabled():
        print(line, flush=True)


def test_criterion_1_energy_model(capfd):
    t0 = time.monotonic()
    # headline ratios
    assert ann_snn_ratio(1.0, 0.264, 0.0) == pytest.approx(19.36, rel=0.005)
    assert ann_snn_ratio(1.0, 0.251, 0.084) == pytest.approx(7.75, rel=0.005)
    # absolute energies at the published operating points
    e_evsnn = energy_from_totals(**{k: PUBLISHED["evsnn"][k]
                                    for k in ("op_ann", "op_snn", "rate")})
    e_pa = energy_from_totals(**{k: PUBLISHED["pa-evsnn"][k]
                                 for k in ("op_ann", "op_snn", "rate")})
    e_lstm = energy_from_totals(**{k: PUBLISHED["e2vid-lstm"][k]
                                   for k in ("op_ann", "op_snn", "rate")})
    assert e_evsnn == pytest.approx(3.83e-3, rel=0.005)
    assert e_pa == pytest.approx(1.055e-2, rel=0.005)
    assert e_lstm == pytest.approx(9.232e-2, rel=0.005)
    # normalized against the LSTM reference
    assert e_evsnn / e_lstm == pytest.approx(0.0414, rel=0.005)
    assert e_pa / e_lstm == pytest.approx(0.1142, rel=0.005)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(capfd, 1, "energy-model reproduction", elapsed, 1)


def test_criterion_2_parameter_counts(capfd):
    t0 = time.monotonic()
    evsnn = Network(NetworkSpec(height=180, width=240), seed=0)
    assert evsnn.num_parameters() == pytest.approx(4.41e6, rel=0.02)
    pa = Network(NetworkSpec(height=180, width=240, potential_assisted=True,
                             amp_enabled=True), seed=0)
    assert pa.num_parameters() == pytest.approx(4.62e6, rel=0.02)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(capfd, 2, "parameter-count cross-check", elapsed, 10)


@pytest.mark.slow
def test_criterion_3_toy_overfit(capfd):
    t0 = time.monotonic()
    scene = random_scene(32, 32, 41, np.random.default_rng(42), contrast=0.1)
    spec = NetworkSpec(height=32, width=32, n_channels=8, n_encoders=2,
                       n_residual=1)  # CONCAT skips, LIF neurons (defaults)
    net = Network(spec, seed=0)
    cfg = TrainConfig(batch=1, epochs=200, seq_len=40)
    train(net, [scene], cfg)
    bins, gts, _ = scene_to_bins(scene)
    mse_val, _ = evaluate_reconstruction(net, bins[:40], gts[:40])
    assert mse_val < 0.05
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report(capfd, 3, f"toy overfit (MSE {mse_val:.4f} < 0.05)", elapsed, 600)


def test_criterion_4_neuron_oracles(capfd):
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    n_tuples = 0
    # LIF and IF against scalar references, 100 configs x 50 tuples each
    for _ in range(100):
        tau = float(rng.uniform(1.05, 10.0))
        v_th = float(rng.uniform(0.2, 2.0))
        v_reset = float(rng.uniform(-0.5, 0.5))
        v_rest = float(rng.uniform(-0.5, 0.5))
        cfg = NeuronConfig(kind="LIF", tau=tau, v_th=v_th,
                           v_reset=v_reset, v_rest=v_rest)
        cfg_if = NeuronConfig(kind="IF", v_th=v_th, v_reset=v_reset)
        v0 = rng.normal(size=50)
        x = rng.normal(scale=2.0, size=50)
        s, v = lif_step(Tensor(v0), Tensor(x), cfg)
        s_if, v_if = if_step(Tensor(v0), Tensor(x), cfg_if)
        for i in range(50):
            # scalar step-by-step references
            vc = v0[i] + (1.0 / tau) * (-(v0[i] - v_rest) + x[i])
            s_ref = 1.0 if vc >= v_th else 0.0
            v_ref = v_reset if s_ref else vc
            assert abs(s.data[i] - s_ref) == 0.0
            assert abs(v.data[i] - v_ref) <= 1e-12
            assert s.data[i] in (0.0, 1.0)  # binarity
            if s.data[i] == 1.0:
                assert v.data[i] == v_reset  # hard reset
            vc_if = v0[i] + x[i]
            s_ref = 1.0 if vc_if >= v_th else 0.0
            assert s_if.data[i] == s_ref
            assert abs(v_if.data[i] - (v_reset if s_ref else vc_if)) <= 1e-12
            n_tuples += 2
    # MP neurons
    for _ in range(50):
        tau = float(rng.uniform(1.05, 10.0))
        v0 = rng.normal(size=50)
        x = rng.normal(size=50)
        _, v = mp_step(Tensor(v0), Tensor(x), tau)
        ref = (1.0 - 1.0 / tau) * v0 + (1.0 / tau) * x
        assert np.max(np.abs(v.data - ref)) <= 1e-12
        n_tuples += 50
    # AMP steps against an independent per-element reference
    for _ in range(20):
        c = int(rng.integers(2, 5))
        params = AmpBlockParams.create(c, rng=rng)
        spikes = (rng.random((2, c, 6, 6)) > 0.5).astype(float)
        v0 = rng.normal(size=(2, c, 6, 6))
        x = rng.normal(size=(2, c, 6, 6))
        out, v_new = amp_lif_step(Tensor(v0), Tensor(x), Tensor(spikes), params)
        tau_ref = _amp_tau_reference(spikes, params)
        inv = 1.0 / tau_ref[:, :, None, None]
        ref = (1.0 - inv) * v0 + inv * x
        assert np.max(np.abs(v_new.data - ref)) <= 1e-12
        assert np.array_equal(out.data, v_new.data)
        n_tuples += v0.size
    assert n_tuples >= 10_000
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(capfd, 4, f"neuron-dynamics oracles ({n_tuples} tuples)", elapsed, 5)


def _amp_tau_reference(spikes, params):
    """Direct-loop reference of the adaptive tau computation."""
    n, c, h, w = spikes.shape
    f = spikes.mean(axis=(2, 3))
    conv_w = params.conv_w.data
    conv_b = params.conv_b.data
    padded = np.pad(spikes, ((0, 0), (0, 0), (1, 1), (1, 1)))
    conv = np.zeros_like(spikes)
    for ky in range(3):
        for kx in range(3):
            conv += conv_w[None, :, ky, kx, None, None] * \
                padded[:, :, ky:ky + h, kx:kx + w]
    conv += conv_b[None, :, None, None]
    i = conv.max(axis=(2, 3))
    pre = np.concatenate([f, i], axis=1) @ params.lin_w.data.T + params.lin_b.data
    return 1.0 / (1.0 / (1.0 + np.exp(-pre)))


def test_criterion_5_gradient_suite(capfd):
    t0 = time.monotonic()
    rng = np.random.default_rng(5)

    # (a) finite-difference checks across the primitive set
    w = Tensor(rng.standard_normal((2, 2, 3, 3)) * 0.4)
    dw = Tensor(rng.standard_normal((2, 3, 3)) * 0.4)
    lw = Tensor(rng.standard_normal((3, 2)) * 0.4)
    lb = Tensor(rng.standard_normal(3) * 0.1)
    bn_g = Tensor(np.abs(rng.standard_normal(2)) + 0.5)
    bn_b = Tensor(rng.standard_normal(2) * 0.1)
    checks = {
        "add": lambda t: (t + 2.0 * t).sum(),
        "sub": lambda t: (t - 0.3 * t).sum(),
        "mul": lambda t: (t * t).sum(),
        "pow": lambda t: ((t * t + 1.0) ** 1.5).sum(),
        "sqrt": lambda t: ad.sqrt(t * t + 1.0).sum(),
        "sigmoid": lambda t: ad.sigmoid(t).sum(),
        "abs": lambda t: t.abs().sum(),
        "clip": lambda t: ad.clip(t * 2.0, -0.8, 0.8).sum(),
        "maximum": lambda t: ad.maximum(t, 0.2).sum(),
        "mean": lambda t: (t * 3.0).mean(),
        "reshape": lambda t: (t.reshape(-1) ** 2.0).sum(),
        "getitem": lambda t: (t[1:, 1:] * t[:-1, :-1]).sum(),
        "concat": lambda t: (ad.concat([t, t], axis=0) ** 2.0).sum(),
        "roll": lambda t: (ad.roll(t, (1, 1), axis=(0, 1)) * t).sum(),
        "matmul": lambda t: ad.matmul(t, ad.transpose(t)).sum(),
    }
    for name, f in checks.items():
        x = Tensor(rng.standard_normal((4, 4)) * 0.5 + 0.1)
        err = ad.finite_difference_check(f, x)
        assert err < 1e-4, f"{name}: {err}"
    conv_checks = {
        "conv2d": lambda t: (ad.conv2d(t, w, padding=1) ** 2.0).sum(),
        "depthwise": lambda t: (ad.depthwise_conv3x3(t, dw) ** 2.0).sum(),
        "upsample": lambda t: (ad.upsample_nearest2x(t) ** 2.0).sum(),
        "avg_pool": lambda t: (ad.global_avg_pool(t) ** 2.0).sum(),
        "max_pool": lambda t: (ad.global_max_pool(t * 3.0) ** 2.0).sum(),
        "linear": lambda t: (ad.linear(ad.global_avg_pool(t), lw, lb) ** 2.0).sum(),
        "batch_norm": lambda t: (ad.batch_norm2d(
            t, bn_g, bn_b, np.zeros(2), np.ones(2), training=True) ** 2.0).sum(),
    }
    for name, f in conv_checks.items():
        x = Tensor(rng.standard_normal((2, 2, 5, 5)))
        err = ad.finite_difference_check(f, x)
        assert err < 1e-4, f"{name}: {err}"

    # (b) 3-step scalar LIF chain vs the hand-unrolled surrogate chain
    cfg = NeuronConfig(kind="LIF", tau=2.0)
    w0, xs = 0.7, [1.3, 0.2, 0.9]
    wt = Tensor(np.array(w0), requires_grad=True)
    v = Tensor(0.0)
    total = None
    for xv in xs:
        s, v = lif_step(v, wt * xv, cfg)
        total = s if total is None else total + s
    total.backward()
    manual = _manual_lif_chain_grad(w0, xs, cfg)
    assert abs(float(wt.grad) - manual) < 1e-10

    # (c) surrogate multiplier at the two pinned points, exactly
    assert surrogate_grad(0.0) == 1.0
    assert surrogate_grad(1.0 / np.pi) == 0.5

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(capfd, 5, "gradient suite (FD + surrogate chain)", elapsed, 30)


def _manual_lif_chain_grad(w, xs, cfg):
    """Hand-unrolled gradient of sum-of-spikes w.r.t. the input weight,
    frozen spike pattern, reset gate treated as constant."""
    v = 0.0
    dv_dw = 0.0
    grad = 0.0
    for xv in xs:
        vc = v + (1.0 / cfg.tau) * (-(v - cfg.v_rest) + w * xv)
        dvc_dw = (1.0 - 1.0 / cfg.tau) * dv_dw + (1.0 / cfg.tau) * xv
        spiked = vc - cfg.v_th >= 0.0
        grad += surrogate_grad(vc - cfg.v_th) * dvc_dw
        v = cfg.v_reset if spiked else vc
        dv_dw = 0.0 if spiked else dvc_dw
    return grad


def test_criterion_6_voxel_oracle(capfd):
    t0 = time.monotonic()
    rng = np.random.default_rng(6)
    for _ in range(1000):
        h = int(rng.integers(2, 6))
        w = int(rng.integers(2, 6))
        n_bins = int(rng.integers(1, 7))
        t_lo, span = rng.uniform(0, 10), rng.uniform(0.05, 2.0)
        n_ev = int(rng.integers(1, 12))
        ts = np.sort(rng.uniform(t_lo, t_lo + span, n_ev))
        events = [Event(t=float(t), x=int(rng.integers(0, w)),
                        y=int(rng.integers(0, h)), p=int(rng.choice([-1, 1])))
                  for t in ts]
        window = EventWindow(events, t_lo, t_lo + span, h, w)
        grid = encode_voxel_grid(window, n_bins)
        # brute-force double loop over events and bins
        ref = np.zeros((n_bins, h, w))
        for ev in events:
            if n_bins == 1:
                ref[0, ev.y, ev.x] += ev.p
                continue
            t_star = (n_bins - 1) * (ev.t - t_lo) / span
            for b in range(n_bins):
                ref[b, ev.y, ev.x] += ev.p * max(0.0, 1.0 - abs(b - t_star))
        assert np.max(np.abs(grid.data - ref)) <= 1e-12
        # per-event mass conservation: every in-window event deposits p
        assert abs(grid.data.sum() - sum(e.p for e in events)) <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(capfd, 6, "voxel-grid oracle (1000 windows)", elapsed, 5)


def test_criterion_7_skip_truth_tables(capfd):
    t0 = time.monotonic()
    a = Tensor(np.array([0.0, 0.0, 1.0, 1.0]))
    b = Tensor(np.array([0.0, 1.0, 0.0, 1.0]))
    np.testing.assert_array_equal(skip_connect("ADD", a, b).data, [0, 1, 1, 2])
    np.testing.assert_array_equal(skip_connect("OR", a, b).data, [0, 1, 1, 1])
    np.testing.assert_array_equal(skip_connect("IAND", a, b).data, [0, 1, 0, 0])
    cat = skip_connect("CONCAT", ad.reshape(a, (1, 1, 2, 2)),
                       ad.reshape(b, (1, 1, 2, 2)))
    np.testing.assert_array_equal(cat.data.ravel(), [0, 0, 1, 1, 0, 1, 0, 1])
    # binarity sweep: OR/IAND/CONCAT stay binary, ADD does not
    rng = np.random.default_rng(7)
    add_left_binary = True
    for _ in range(200):
        sa = Tensor((rng.random((1, 2, 4, 4)) > 0.5).astype(float))
        sb = Tensor((rng.random((1, 2, 4, 4)) > 0.5).astype(float))
        for kind in ("OR", "IAND", "CONCAT"):
            assert set(np.unique(skip_connect(kind, sa, sb).data)) <= {0.0, 1.0}
        if not set(np.unique(skip_connect("ADD", sa, sb).data)) <= {0.0, 1.0}:
            add_left_binary = False
    assert not add_left_binary  # ADD is flagged: it leaves the binary domain
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(capfd, 7, "skip-connection truth tables", elapsed, 1)


def test_criterion_8_temporal_receptive_field(capfd):
    t0 = time.monotonic()
    spec = NetworkSpec(height=16, width=16, n_channels=4, n_encoders=2,
                       n_residual=1)
    rng = np.random.default_rng(8)

    # (a) folded BN + zero biases: every spiking layer decays by (1-1/tau)
    net = Network(spec, seed=0)
    net.train_mode(True)
    for _ in range(3):  # populate running statistics
        net.forward_step(rng.standard_normal((16, 16)))
    net.train_mode(False)
    net.fold_batchnorm()
    net.zero_biases()
    net.reset_state()
    # seed sub-threshold membrane potentials directly
    shapes = {}
    net.forward_step(np.zeros((16, 16)))  # one step to learn state shapes
    for lid, value in net.get_state().items():
        shapes[lid] = value.shape
    net.reset_state()
    seeded = {lid: rng.uniform(0.05, 0.5, size=shape)
              for lid, shape in shapes.items()}
    net.set_state(seeded)
    decay = 1.0 - 1.0 / spec.tau
    prev = {lid: v.copy() for lid, v in seeded.items()}
    for _ in range(4):
        out = net.forward_step(np.zeros((16, 16)))
        cur = net.get_state()
        for lid in prev:
            np.testing.assert_allclose(cur[lid], decay * prev[lid],
                                       rtol=0, atol=1e-14,
                                       err_msg=f"layer {lid}")
        prev = cur

    # (b) unfolded BN with nonzero shifts (as a trained network has):
    # empty input keeps neurons firing
    net2 = Network(spec, seed=0)
    for stage in net2.stages:
        if stage.has_bn:
            stage.beta.data[:] = rng.uniform(0.5, 1.5, stage.beta.shape)
    net2.train_mode(False)
    net2.reset_state()
    spike_counts = {}
    for _ in range(6):
        net2.forward_step(np.zeros((16, 16)), spike_counts)
    fired = sum(f for f, _ in spike_counts.values())
    assert fired > 0  # the bias-driven limitation: silence does not silence it
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(capfd, 8, "temporal-receptive-field decay law", elapsed, 30)


def test_criterion_9_amp_range(capfd):
    t0 = time.monotonic()
    rng = np.random.default_rng(9)
    n_taus = 0
    for _ in range(400):
        c = int(rng.integers(2, 6))
        params = AmpBlockParams.create(c, rng=rng)
        # scale weights up so the pre-sigmoid activations explore both tails
        params.conv_w.data *= rng.uniform(0.5, 10)
        params.lin_w.data *= rng.uniform(0.5, 10)
        params.lin_b.data += rng.normal(scale=3.0, size=c)
        spikes = (rng.random((8, c, 5, 5)) > rng.random()).astype(float)
        tau = amp_compute_tau(Tensor(spikes), params).data
        assert np.all(tau > 1.0) and np.all(np.isfinite(tau))
        factor = 1.0 - 1.0 / tau
        assert np.all(factor > 0.0) and np.all(factor < 1.0)
        n_taus += tau.size
    assert n_taus >= 10_000
    # zero-parameter AMP reduces bitwise to MP_LIF with tau = 2
    params0 = AmpBlockParams.create(channels=3, rng=None)
    v0 = rng.standard_normal((2, 3, 6, 6))
    x = rng.standard_normal((2, 3, 6, 6))
    spikes = (rng.random((2, 3, 6, 6)) > 0.5).astype(float)
    _, v_amp = amp_lif_step(Tensor(v0), Tensor(x), Tensor(spikes), params0)
    _, v_mp = mp_step(Tensor(v0), Tensor(x), 2.0)
    assert np.array_equal(v_amp.data, v_mp.data)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(capfd, 9, f"AMP tau range ({n_taus} taus)", elapsed, 5)
