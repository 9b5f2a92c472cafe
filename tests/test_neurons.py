import tracemalloc

import numpy as np
import pytest
from test_autodiff import _retained_bytes, max_rel_err

from evrecon import autodiff as ad
from evrecon.autodiff import Tensor
from evrecon.errors import ConfigError, ContractError, ShapeError
from evrecon.neurons import (AmpBlockParams, MPLayer, NeuronConfig,
                             SpikingLayer, _charge_fire_reset, amp_compute_tau,
                             amp_lif_step, if_step, inv_tau, lif_step, mp_step,
                             plif_tau, surrogate_grad)


# -- the unfused compositions the fused ops replaced, kept as oracles --------

def surrogate_spike(x):
    """Heaviside forward (1 iff x >= 0) with arctan-surrogate backward."""
    x = ad.as_tensor(x)
    out = (x.data >= 0.0).astype(np.float64)
    return ad.make_op(out, (x,), lambda g: (g / (1.0 + np.pi ** 2 * x.data ** 2),))


def _fire_and_reset(v_charge, v_th, v_reset):
    spikes = surrogate_spike(v_charge - v_th)
    gate = spikes.detach()  # reset is treated as a constant during backward
    v_new = v_charge * (1.0 - gate) + v_reset * gate
    return spikes, v_new


def _leaky_charge(v_prev, x, inv, v_rest):
    """Charge toward rest plus input: v + inv * (-(v - v_rest) + x), inv = 1/tau."""
    return v_prev + inv * (-(v_prev - v_rest) + x)


def composed_spiking_step(v_prev, x, inv, cfg):
    """`_charge_fire_reset` as the composition of elementwise ops."""
    v_charge = v_prev + x if inv is None else _leaky_charge(v_prev, x, inv, cfg.v_rest)
    return _fire_and_reset(v_charge, cfg.v_th, cfg.v_reset)


def composed_mp_step(v_prev, x, tau):
    inv = ad.pow(tau, -1.0) if isinstance(tau, Tensor) else 1.0 / tau
    return (1.0 - inv) * v_prev + inv * x


def oracle_lif(v, x, tau, v_th, v_reset, v_rest):
    """Scalar reference of one LIF update, written independently."""
    v_new = v + (1.0 / tau) * (-(v - v_rest) + x)
    s = 1.0 if v_new >= v_th else 0.0
    return s, v_reset if s else v_new


def oracle_if(v, x, v_th, v_reset):
    v_new = v + x
    s = 1.0 if v_new >= v_th else 0.0
    return s, v_reset if s else v_new


def oracle_mp(v, x, tau):
    return (1.0 - 1.0 / tau) * v + (1.0 / tau) * x


class TestLIF:
    def test_subthreshold_decay(self):
        cfg = NeuronConfig(kind="LIF", tau=2.0)
        s, v = lif_step(Tensor(np.array(0.4)), Tensor(np.array(0.0)), cfg)
        assert s.item() == 0.0
        assert v.item() == pytest.approx(0.2, abs=1e-15)  # halves toward rest

    def test_fires_and_hard_resets(self):
        cfg = NeuronConfig(kind="LIF", tau=2.0, v_th=1.0, v_reset=0.0)
        s, v = lif_step(Tensor(np.array(0.5)), Tensor(np.array(3.0)), cfg)
        assert s.item() == 1.0
        assert v.item() == 0.0

    def test_threshold_is_inclusive(self):
        # V == v_th must spike (Heaviside with H(0) = 1)
        cfg = NeuronConfig(kind="LIF", tau=2.0, v_th=1.0)
        s, _ = lif_step(Tensor(np.array(0.0)), Tensor(np.array(2.0)), cfg)
        assert s.item() == 1.0

    def test_nonzero_rest_potential(self):
        cfg = NeuronConfig(kind="LIF", tau=4.0, v_rest=0.5, v_th=10.0)
        s, v = lif_step(Tensor(np.array(0.0)), Tensor(np.array(0.0)), cfg)
        assert v.item() == pytest.approx(0.125, abs=1e-15)

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            tau = float(rng.uniform(1.1, 8.0))
            v_th = float(rng.uniform(0.2, 2.0))
            v_reset = float(rng.uniform(-0.5, 0.5))
            v_rest = float(rng.uniform(-0.5, 0.5))
            cfg = NeuronConfig(kind="LIF", tau=tau, v_th=v_th,
                               v_reset=v_reset, v_rest=v_rest)
            v0, x = float(rng.normal()), float(rng.normal(scale=2.0))
            s, v = lif_step(Tensor(np.array(v0)), Tensor(np.array(x)), cfg)
            s_ref, v_ref = oracle_lif(v0, x, tau, v_th, v_reset, v_rest)
            assert s.item() == s_ref
            assert abs(v.item() - v_ref) <= 1e-12


class TestIF:
    def test_pure_integration(self):
        cfg = NeuronConfig(kind="IF", v_th=10.0)
        v = Tensor(np.array(0.0))
        for _ in range(5):
            _, v = if_step(v, Tensor(np.array(0.3)), cfg)
        assert v.item() == pytest.approx(1.5, abs=1e-12)

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(42)
        cfg = NeuronConfig(kind="IF", v_th=1.0, v_reset=0.0)
        for _ in range(200):
            v0, x = float(rng.normal()), float(rng.normal())
            s, v = if_step(Tensor(np.array(v0)), Tensor(np.array(x)), cfg)
            s_ref, v_ref = oracle_if(v0, x, 1.0, 0.0)
            assert s.item() == s_ref and abs(v.item() - v_ref) <= 1e-12


class TestPLIF:
    def test_tau_from_weight(self):
        assert plif_tau(0.0).item() == pytest.approx(2.0, abs=1e-12)
        assert plif_tau(10.0).item() == pytest.approx(1.0, rel=1e-4)

    def test_tau_always_above_one(self):
        # sigmoid rounds to exactly 1 from w = 37 on; the clip keeps tau > 1
        ws = np.linspace(-50, 50, 201)
        taus = np.asarray([plif_tau(w).item() for w in ws])
        assert np.all(taus > 1.0) and np.all(np.isfinite(taus))

    def test_inv_tau_clips_saturated_sigmoid(self):
        assert inv_tau(0.3).item() == 1.0 / (1.0 + np.exp(-0.3))
        assert inv_tau(40.0).item() == 1.0 - 1e-12
        assert inv_tau(-50.0).item() == 1e-12

    def test_plif_with_w_zero_matches_lif_tau2(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((4, 4))
        cfg_p = NeuronConfig(kind="PLIF")
        cfg_l = NeuronConfig(kind="LIF", tau=2.0)
        layer_p = SpikingLayer(cfg_p)
        layer_l = SpikingLayer(cfg_l)
        for _ in range(3):
            sp = layer_p.step(Tensor(x))
            sl = layer_l.step(Tensor(x))
        np.testing.assert_allclose(sp.data, sl.data, atol=1e-12)


class TestMP:
    def test_leaky_average(self):
        out, v = mp_step(Tensor(np.array(1.0)), Tensor(np.array(0.0)), 2.0)
        assert v.item() == 0.5
        assert out.item() == v.item()  # the output is the potential itself

    def test_never_spikes_never_resets(self):
        # large input: a membrane-potential neuron keeps its analog value
        out, v = mp_step(Tensor(np.array(0.0)), Tensor(np.array(100.0)), 2.0)
        assert out.item() == 50.0 and v.item() == 50.0

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            tau = float(rng.uniform(1.01, 10.0))
            v0, x = float(rng.normal()), float(rng.normal())
            _, v = mp_step(Tensor(np.array(v0)), Tensor(np.array(x)), tau)
            assert abs(v.item() - oracle_mp(v0, x, tau)) <= 1e-12


class TestSurrogate:
    def test_forward_is_heaviside(self):
        s, _ = if_step(Tensor(np.zeros(3)), Tensor(np.array([-0.5, 0.0, 0.5])),
                       NeuronConfig(kind="IF", v_th=0.0))
        np.testing.assert_array_equal(s.data, [0.0, 1.0, 1.0])

    def test_grad_at_zero_is_one(self):
        assert surrogate_grad(np.array(0.0)) == 1.0

    def test_grad_at_inv_pi_is_half(self):
        assert surrogate_grad(np.array(1.0 / np.pi)) == pytest.approx(0.5, abs=1e-15)

    def test_grad_symmetric_and_decaying(self):
        xs = np.linspace(0.1, 5.0, 20)
        g = surrogate_grad(xs)
        np.testing.assert_allclose(surrogate_grad(-xs), g, atol=1e-15)
        assert np.all(np.diff(g) < 0)

    def test_backward_uses_surrogate(self):
        x = Tensor(np.array([0.3]), requires_grad=True)
        s, _ = if_step(Tensor(np.zeros(1)), x, NeuronConfig(kind="IF", v_th=1.0))
        s.sum().backward()
        expect = 1.0 / (1.0 + np.pi ** 2 * 0.49)
        assert x.grad[0] == pytest.approx(expect, abs=1e-15)

    def test_backward_equals_surrogate_grad(self):
        xs = np.linspace(-3.0, 3.0, 41)
        x = Tensor(xs, requires_grad=True)
        s, _ = if_step(Tensor(np.zeros(41)), x, NeuronConfig(kind="IF", v_th=0.0))
        s.sum().backward()
        np.testing.assert_array_equal(x.grad, surrogate_grad(xs))

    def test_reset_path_detached(self):
        # the reset gate must not contribute a second gradient path:
        # d v_new / d x for a non-spiking LIF step is exactly 1/tau
        cfg = NeuronConfig(kind="LIF", tau=2.0, v_th=100.0)
        x = Tensor(np.array(0.2), requires_grad=True)
        _, v = lif_step(Tensor(np.array(0.0)), x, cfg)
        v.backward()
        assert x.grad == pytest.approx(0.5, abs=1e-15)


SPIKING_CFG = NeuronConfig(kind="LIF", tau=3.0, v_th=0.9, v_reset=-0.2, v_rest=0.1)


def _near_threshold(rng, shape, inv):
    """(v_prev, x) whose charge v_c falls within about 0.5 of SPIKING_CFG's
    threshold, so that about half of the neurons fire; `inv` is 1/tau."""
    v = rng.normal(scale=0.5, size=shape)
    v_c = SPIKING_CFG.v_th + rng.normal(scale=0.5, size=shape)
    if inv is None:
        return v, v_c - v
    return v, (v_c - v) / _inv_value(inv) + v - SPIKING_CFG.v_rest


def _inv_value(inv):
    return float(inv.data) if isinstance(inv, Tensor) else inv


class TestFusedSpikingStep:
    """The fused charge-fire-reset op against the composition it replaced."""

    @staticmethod
    def inv(kind):
        """1/tau as the op takes it: None (IF), a float (LIF), a leaf Tensor (PLIF)."""
        return {"IF": None, "LIF": 1.0 / SPIKING_CFG.tau,
                "PLIF": Tensor(np.array(0.37), requires_grad=True)}[kind]

    @pytest.mark.parametrize("kind", ["IF", "LIF", "PLIF"])
    def test_no_grad_outputs_bitwise(self, kind):
        inv = self.inv(kind)
        v, x = _near_threshold(np.random.default_rng(60), (2, 3, 5, 5), inv)
        with ad.no_grad():
            got = _charge_fire_reset(Tensor(v), Tensor(x), inv, SPIKING_CFG)
            want = composed_spiking_step(Tensor(v), Tensor(x), inv, SPIKING_CFG)
        assert 0.2 < got[0].data.mean() < 0.8
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.data, w.data)

    @pytest.mark.parametrize("kind", ["IF", "LIF", "PLIF"])
    def test_three_steps_match_oracle(self, kind):
        # outputs bitwise, every input gradient within 1e-12, over a chain in
        # which each v_new feeds the next step's charge and the loss
        rng = np.random.default_rng(61)
        v0, _ = _near_threshold(rng, (2, 3, 4, 4), self.inv(kind))
        xs = [_near_threshold(rng, (2, 3, 4, 4), self.inv(kind))[1] for _ in range(3)]
        ws = [rng.standard_normal((2, 2, 3, 4, 4)) for _ in range(3)]

        def run(step):
            inv = self.inv(kind)
            leaves = [Tensor(v0, requires_grad=True)] + [Tensor(x, requires_grad=True) for x in xs]
            v, loss, outs = leaves[0], None, []
            for x, w in zip(leaves[1:], ws):
                s, v = step(v, x, inv, SPIKING_CFG)
                outs += [s.data, v.data]
                term = (s * w[0]).sum() + (v * w[1]).sum()
                loss = term if loss is None else loss + term
            loss.backward()
            grads = [t.grad for t in leaves] + ([inv.grad] if isinstance(inv, Tensor) else [])
            return outs, grads

        outs, grads = run(_charge_fire_reset)
        outs_ref, grads_ref = run(composed_spiking_step)
        for got, want in zip(outs, outs_ref):
            np.testing.assert_array_equal(got, want)
        assert len(grads) == (5 if kind == "PLIF" else 4)
        for got, want in zip(grads, grads_ref):
            assert max_rel_err(got, want) < 1e-12

    @pytest.mark.parametrize("kind", ["IF", "LIF", "PLIF"])
    def test_finite_difference_of_v_new(self, kind):
        # away from the threshold no spike flips within the FD step, so v_new
        # is smooth in (v_prev, x, 1/tau); the spike path is the surrogate's
        rng = np.random.default_rng(62)
        inv = self.inv(kind)
        v, x = _near_threshold(rng, (1, 2, 4, 4), inv)
        a = 1.0 if inv is None else _inv_value(inv)
        v_c = v + x if inv is None else v + a * (x - (v - SPIKING_CFG.v_rest))
        x = x + np.where(np.abs(v_c - SPIKING_CFG.v_th) < 0.05, 0.1 / a, 0.0)  # v_c += 0.1
        w = rng.standard_normal(v.shape)

        def loss(vt, xt, it):
            return (_charge_fire_reset(vt, xt, it, SPIKING_CFG)[1] * w).sum()

        assert ad.finite_difference_check(lambda t: loss(t, Tensor(x), inv), v) < 1e-6
        assert ad.finite_difference_check(lambda t: loss(Tensor(v), t, inv), x) < 1e-6
        if kind == "PLIF":
            assert ad.finite_difference_check(lambda t: loss(Tensor(v), Tensor(x), t),
                                              inv.data) < 1e-6

    def test_reset_gate_detached(self):
        # where a neuron fires, v_new = v_reset passes no gradient back
        cfg = NeuronConfig(kind="LIF", tau=2.0, v_th=0.5)
        x = Tensor(np.array([0.2, 3.0]), requires_grad=True)
        _, v = lif_step(Tensor(np.zeros(2)), x, cfg)
        v.sum().backward()
        np.testing.assert_array_equal(x.grad, [0.5, 0.0])

    @pytest.mark.parametrize("kind,per_neuron", [("IF", 9), ("LIF", 9), ("PLIF", 17)])
    def test_keeps_multiplier_mask_and_plif_drive(self, kind, per_neuron):
        # the float64 surrogate multiplier, the bool mask and PLIF's float64
        # drive, shared by both nodes (plus PLIF's 8-byte 1/tau)
        inv = self.inv(kind)
        v, x = _near_threshold(np.random.default_rng(68), (2, 3, 4, 4), inv)
        s, v_new = _charge_fire_reset(Tensor(v, requires_grad=True),
                                      Tensor(x, requires_grad=True), inv, SPIKING_CFG)
        seen = {}
        _retained_bytes(s._bw, seen)
        _retained_bytes(v_new._bw, seen)
        assert sum(seen.values()) == per_neuron * v.size + (8 if kind == "PLIF" else 0)

    def test_tape_holds_two_nodes(self):
        v_prev = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        s, v = lif_step(v_prev, x, NeuronConfig(kind="LIF"))
        assert s._parents == v._parents == (v_prev, x)

    @pytest.mark.parametrize("kind", ["IF", "LIF", "PLIF"])
    def test_writes_into_no_input(self, kind):
        rng = np.random.default_rng(63)
        v, x = _near_threshold(rng, (1, 2, 3, 3), self.inv(kind))
        vt, xt = Tensor(v.copy(), requires_grad=True), Tensor(x.copy(), requires_grad=True)
        s, v_new = _charge_fire_reset(vt, xt, self.inv(kind), SPIKING_CFG)
        g = rng.standard_normal(v.shape)
        for node in (s, v_new):
            g_in = g.copy()
            node._bw(g_in)
            np.testing.assert_array_equal(g_in, g)
        with ad.no_grad():
            _charge_fire_reset(vt, xt, self.inv(kind), SPIKING_CFG)
        np.testing.assert_array_equal(vt.data, v)
        np.testing.assert_array_equal(xt.data, x)

    def test_no_grad_allocates_each_output_once(self):
        # v_new and the spikes at 8 bytes a neuron, the fired mask at 1, and
        # up to 128 KiB of numpy's buffers
        shape = (1, 8, 64, 64)
        v, x = _near_threshold(np.random.default_rng(64), shape, 1.0 / SPIKING_CFG.tau)
        v, x = Tensor(v), Tensor(x)
        with ad.no_grad():
            lif_step(v, x, SPIKING_CFG)  # warm up
            tracemalloc.start()
            out = lif_step(v, x, SPIKING_CFG)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 17 * v.size + 2 ** 17 and len(out) == 2

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            lif_step(Tensor(np.zeros(3)), Tensor(np.zeros(4)), NeuronConfig(kind="LIF"))


class TestFusedMPStep:
    """`mp_step` as one op against the composition it replaced."""

    @staticmethod
    def taus(rng):
        return [2.5, Tensor(rng.uniform(1.1, 5.0, (2, 3, 1, 1)), requires_grad=True)]

    def test_no_grad_outputs_bitwise(self):
        rng = np.random.default_rng(65)
        v, x = rng.standard_normal((2, 2, 3, 4, 4))
        for tau in self.taus(rng):
            with ad.no_grad():
                out, state = mp_step(Tensor(v), Tensor(x), tau)
                want = composed_mp_step(Tensor(v), Tensor(x), tau)
            np.testing.assert_array_equal(out.data, want.data)
            assert state is out

    def test_gradients_match_oracle(self):
        rng = np.random.default_rng(66)
        v, x = rng.standard_normal((2, 2, 3, 4, 4))
        w = rng.standard_normal(v.shape)
        for tau in self.taus(rng):
            def run(step):
                leaves = [Tensor(v, requires_grad=True), Tensor(x, requires_grad=True)]
                if isinstance(tau, Tensor):
                    tau.grad = None
                out = step(*leaves, tau)
                (out * w).sum().backward()
                extra = [tau.grad] if isinstance(tau, Tensor) else []
                return out.data, [t.grad for t in leaves] + extra

            got, grads = run(lambda *a: mp_step(*a)[0])
            want, grads_ref = run(composed_mp_step)
            np.testing.assert_array_equal(got, want)
            for g, r in zip(grads, grads_ref):
                assert max_rel_err(g, r) < 1e-12

    def test_finite_difference(self):
        rng = np.random.default_rng(67)
        v, x = rng.standard_normal((2, 1, 2, 3, 3))
        tau = rng.uniform(1.1, 5.0, (1, 2, 1, 1))
        w = rng.standard_normal(v.shape)

        def loss(vt, xt, tt):
            return (mp_step(vt, xt, tt)[0] ** 2.0 * w).sum()

        assert ad.finite_difference_check(lambda t: loss(t, Tensor(x), Tensor(tau)), v) < 1e-5
        assert ad.finite_difference_check(lambda t: loss(Tensor(v), t, Tensor(tau)), x) < 1e-5
        assert ad.finite_difference_check(lambda t: loss(Tensor(v), Tensor(x), t), tau) < 1e-5

    def test_tau_shape_checked(self):
        v = Tensor(np.zeros((2, 3, 4, 4)))
        with pytest.raises(ShapeError):
            mp_step(v, v, Tensor(np.full((3,), 2.0)))


class TestAMP:
    def test_zero_params_give_tau_two(self):
        params = AmpBlockParams.create(channels=3, rng=None)
        spikes = Tensor(np.random.default_rng(45).random((2, 3, 6, 6)))
        tau = amp_compute_tau(spikes, params)
        np.testing.assert_allclose(tau.data, np.full((2, 3), 2.0), atol=1e-12)

    def test_tau_bounds_randomized(self):
        rng = np.random.default_rng(46)
        params = AmpBlockParams.create(channels=4, rng=rng)
        for _ in range(50):
            spikes = Tensor((rng.random((2, 4, 5, 5)) > 0.5).astype(float))
            tau = amp_compute_tau(spikes, params)
            assert np.all(tau.data > 1.0)
            assert np.all(np.isfinite(tau.data))

    def test_tau_shape_per_sample_per_channel(self):
        params = AmpBlockParams.create(channels=5, rng=np.random.default_rng(0))
        tau = amp_compute_tau(Tensor(np.zeros((3, 5, 4, 4))), params)
        assert tau.shape == (3, 5)

    def test_amp_step_with_zero_params_matches_mp_tau2(self):
        rng = np.random.default_rng(47)
        params = AmpBlockParams.create(channels=2, rng=None)
        v = Tensor(rng.standard_normal((1, 2, 4, 4)))
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        spikes = Tensor((rng.random((1, 2, 4, 4)) > 0.5).astype(float))
        v_amp, _ = amp_lif_step(v, x, spikes, params)
        v_mp, _ = mp_step(v, x, 2.0)
        np.testing.assert_array_equal(v_amp.data, v_mp.data)

    def test_gradients_reach_amp_params(self):
        rng = np.random.default_rng(48)
        params = AmpBlockParams.create(channels=2, rng=rng)
        for t in params.tensors():
            t.requires_grad = True
        v = Tensor(rng.standard_normal((1, 2, 4, 4)))
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        spikes = Tensor((rng.random((1, 2, 4, 4)) > 0.5).astype(float))
        out, _ = amp_lif_step(v, x, spikes, params)
        out.sum().backward()
        assert all(t.grad is not None for t in params.tensors())
        assert any(np.abs(t.grad).sum() > 0 for t in params.tensors())


class TestLayers:
    def test_spiking_layer_state_evolves(self):
        layer = SpikingLayer(NeuronConfig(kind="LIF", v_th=10.0))
        x = Tensor(np.ones((1, 2, 3, 3)))
        layer.step(x)
        v1 = layer.state.data.copy()
        layer.step(x)
        assert not np.array_equal(layer.state.data, v1)

    def test_reset_state(self):
        layer = SpikingLayer(NeuronConfig(kind="LIF", v_th=10.0))
        layer.step(Tensor(np.ones((1, 2, 3, 3))))
        layer.reset_state()
        assert layer.state is None

    def test_binary_output_over_many_inputs(self):
        rng = np.random.default_rng(49)
        layer = SpikingLayer(NeuronConfig(kind="LIF"))
        for _ in range(20):
            s = layer.step(Tensor(rng.standard_normal((2, 3, 4, 4)) * 3))
            assert set(np.unique(s.data)) <= {0.0, 1.0}

    def test_mp_layer_output_is_state(self):
        layer = MPLayer(NeuronConfig(kind="MP_LIF", tau=2.0))
        out = layer.step(Tensor(np.full((1, 1, 2, 2), 4.0)))
        np.testing.assert_array_equal(out.data, layer.state.data)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 2.0))

    def test_mp_layer_parameters_are_the_amp_block(self):
        assert MPLayer(NeuronConfig(kind="MP_LIF")).parameters() == []
        layer = MPLayer(NeuronConfig(kind="AMP_LIF"), channels=3, rng=np.random.default_rng(0))
        assert layer.parameters() == layer.amp.tensors()

    def test_mp_layer_rejects_spiking_kinds(self):
        with pytest.raises(ConfigError, match="not an MP kind"):
            MPLayer(NeuronConfig(kind="LIF"))

    def test_detach_state_cuts_graph(self):
        layer = SpikingLayer(NeuronConfig(kind="LIF"))
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        layer.step(x)
        layer.detach_state()
        assert not layer.state.requires_grad


class TestConfigValidation:
    def test_unknown_kind(self):
        for kind in ("GRU", "MP_IF", "MP_PLIF"):  # no network builds MP_IF or MP_PLIF
            with pytest.raises(ConfigError, match=f"^NeuronConfig.kind must be one of "
                                                  f"IF/LIF/PLIF/MP_LIF/AMP_LIF, got '{kind}'$"):
                NeuronConfig(kind=kind)

    @pytest.mark.parametrize("kind", ["IF", "MP_LIF"])
    @pytest.mark.parametrize("field", ["v_th", "v_reset", "v_rest", "tau"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10 ** 400])
    def test_non_finite_value_names_field(self, kind, field, value):
        with pytest.raises(ConfigError, match=f"NeuronConfig.{field} must be finite"):
            NeuronConfig(kind=kind, **{field: value})

    def test_wrong_type_names_field(self):
        with pytest.raises(ConfigError, match="NeuronConfig.tau must be float"):
            NeuronConfig(kind="LIF", tau="2")

    @pytest.mark.parametrize("tau", [1.0, 0.5, 0.0, -2.0])
    def test_tau_must_exceed_one(self, tau):
        with pytest.raises(ConfigError):
            NeuronConfig(kind="LIF", tau=tau)

    @pytest.mark.parametrize("tau", [1.0, 0.5])
    def test_steps_hold_the_config_tau_rule(self, tau):
        # both steps refused only tau <= 0, so at tau 0.5 the leak took
        # v = 1 with no input to v = -1
        with pytest.raises(ConfigError, match="tau must be > 1 for LIF"):
            lif_step(Tensor(np.array(1.0)), Tensor(np.array(0.0)),
                     NeuronConfig(kind="IF", tau=tau, v_th=10.0))
        with pytest.raises(ConfigError, match="tau must be > 1 for MP_LIF"):
            mp_step(1.0, 0.0, tau)

    def test_if_ignores_tau_constraint(self):
        NeuronConfig(kind="IF")  # should not raise
