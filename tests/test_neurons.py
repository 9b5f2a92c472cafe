import numpy as np
import pytest

from evrecon import autodiff as ad
from evrecon.autodiff import Tensor
from evrecon.errors import ConfigError, ContractError
from evrecon.neurons import (AmpBlockParams, MPLayer, NeuronConfig,
                             SpikingLayer, amp_compute_tau, amp_lif_step,
                             if_step, lif_step, mp_step, plif_tau,
                             surrogate_grad, surrogate_spike)


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
        ws = np.linspace(-20, 20, 101)
        assert np.all(np.asarray([plif_tau(w).item() for w in ws]) > 1.0)

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
        x = Tensor(np.array([-0.5, 0.0, 0.5]))
        np.testing.assert_array_equal(surrogate_spike(x).data, [0.0, 1.0, 1.0])

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
        surrogate_spike(x - 1.0).sum().backward()
        expect = 1.0 / (1.0 + np.pi ** 2 * 0.49)
        assert x.grad[0] == pytest.approx(expect, abs=1e-15)

    def test_backward_equals_surrogate_grad(self):
        xs = np.linspace(-3.0, 3.0, 41)
        x = Tensor(xs, requires_grad=True)
        surrogate_spike(x).sum().backward()
        np.testing.assert_array_equal(x.grad, surrogate_grad(xs))

    def test_reset_path_detached(self):
        # the reset gate must not contribute a second gradient path:
        # d v_new / d x for a non-spiking LIF step is exactly 1/tau
        cfg = NeuronConfig(kind="LIF", tau=2.0, v_th=100.0)
        x = Tensor(np.array(0.2), requires_grad=True)
        _, v = lif_step(Tensor(np.array(0.0)), x, cfg)
        v.backward()
        assert x.grad == pytest.approx(0.5, abs=1e-15)


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
            with pytest.raises(ConfigError, match="unknown neuron kind"):
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

    def test_if_ignores_tau_constraint(self):
        NeuronConfig(kind="IF")  # should not raise
