"""Neuron-model oracles: analytic membrane trajectories, threshold decay,
refractoriness, alpha-kernel synapses, and dt robustness."""

import math

import numpy as np
import pytest

from spikesim import NeuronParams, new_state, reset_state, step_neuron
from spikesim.neuron import deliver_spike, propagators, threshold_at

from conftest import I_K_DEFAULT


def run_constant_current(params, current, window, dt, n=1):
    state = new_state(n, params)
    spikes = [[] for _ in range(n)]
    n_steps = int(round(window / dt))
    drive = np.full(n, float(current))
    for k in range(n_steps):
        state, fired = step_neuron(state, params, drive, dt)
        for i in np.flatnonzero(fired):
            spikes[i].append(k * dt)
    return state, spikes


# -- parameter defaults and validation ---------------------------------------


def test_default_constants():
    p = NeuronParams()
    assert (p.C_m, p.tau_m, p.E_L) == (100.0, 5.0, -70.0)
    assert (p.tau_syn_ex, p.tau_syn_in, p.t_ref) == (1.0, 3.0, 2.0)
    assert (p.tau1, p.tau2, p.alpha1, p.alpha2, p.omega) == (10.0, 20.0, 37.0, 2.0, -51.0)
    assert p.R == pytest.approx(0.05)
    assert p.rheobase == pytest.approx(380.0)


@pytest.mark.parametrize("field", ["C_m", "tau_m", "tau_syn_ex", "tau_syn_in",
                                   "tau1", "tau2"])
def test_nonpositive_time_constants_rejected(field):
    with pytest.raises(ValueError):
        NeuronParams(**{field: 0.0})


def test_negative_refractory_rejected():
    with pytest.raises(ValueError):
        NeuronParams(t_ref=-1.0)


# -- membrane analytic oracle -------------------------------------------------


def test_subthreshold_trajectory_matches_closed_form(params):
    # V(t) = E_L + R*I*(1 - exp(-t/tau_m)) for constant current, no spikes
    current = 300.0  # below rheobase 380
    for dt in (0.1, 0.05, 0.5):
        state = new_state(1, params)
        n_steps = int(round(100.0 / dt))
        for _ in range(n_steps):
            state, fired = step_neuron(state, params, np.array([current]), dt)
            assert not fired.any()
            t = state.t
            expected = params.E_L + params.R * current * (1.0 - math.exp(-t / params.tau_m))
            assert state.V_m[0] == pytest.approx(expected, abs=1e-9)


def test_equilibrium_at_rest(params):
    state = new_state(3, params)
    for _ in range(1000):
        state, fired = step_neuron(state, params, np.zeros(3), 0.1)
        assert not fired.any()
    assert np.allclose(state.V_m, params.E_L, atol=1e-12)


def test_exactness_invariant_any_dt(params):
    # same horizon, different dt -> identical subthreshold endpoint
    current = 150.0
    finals = []
    for dt in (0.1, 0.2, 0.5, 1.0):
        state, spikes = run_constant_current(params, current, 50.0, dt)
        assert not any(spikes[0])
        finals.append(state.V_m[0])
    assert np.ptp(finals) < 1e-9


# -- threshold dynamics --------------------------------------------------------


def test_threshold_constants(params):
    state = new_state(1, params)
    assert threshold_at(state, params)[0] == pytest.approx(-51.0)
    state.h1[0], state.h2[0] = 37.0, 2.0
    assert threshold_at(state, params)[0] == pytest.approx(-12.0)


def test_threshold_decay_closed_form(params):
    # after one forced spike the threshold is alpha1*e^(-t/tau1) +
    # alpha2*e^(-t/tau2) + omega
    state = new_state(1, params)
    state.h1[0], state.h2[0] = params.alpha1, params.alpha2
    dt = 0.1
    for _ in range(int(round(100.0 / dt))):
        state, _ = step_neuron(state, params, np.zeros(1), dt)
        t = state.t
        expected = (params.alpha1 * math.exp(-t / params.tau1)
                    + params.alpha2 * math.exp(-t / params.tau2) + params.omega)
        assert threshold_at(state, params)[0] == pytest.approx(expected, abs=1e-9)


def test_threshold_decay_value_at_10ms(params):
    state = new_state(1, params)
    state.h1[0] = 37.0
    for _ in range(100):
        state, _ = step_neuron(state, params, np.zeros(1), 0.1)
    # 37*e^-1 contribution, frozen value
    assert state.h1[0] == pytest.approx(13.611539323343366, abs=1e-9)


def test_spike_jumps_and_refractory(params):
    # suprathreshold drive: first spike raises threshold by alpha1+alpha2
    state = new_state(1, params)
    dt = 0.1
    fired_at = None
    for k in range(500):
        state, fired = step_neuron(state, params, np.array([1000.0]), dt)
        if fired[0]:
            fired_at = k
            break
    assert fired_at is not None
    assert state.h1[0] == pytest.approx(params.alpha1)
    assert state.h2[0] == pytest.approx(params.alpha2)
    assert state.refractory_remaining[0] == pytest.approx(params.t_ref)


def test_membrane_not_reset_on_spike(params):
    # non-resetting integrator: V_m keeps rising through the spike
    state = new_state(1, params)
    dt = 0.1
    v_before = None
    for _ in range(500):
        v_prev = state.V_m[0]
        state, fired = step_neuron(state, params, np.array([2000.0]), dt)
        if fired[0]:
            v_before = v_prev
            break
    assert v_before is not None and state.V_m[0] > v_before


def test_isi_at_least_t_ref_random_drives(params):
    rng = np.random.default_rng(11)
    for _ in range(10):
        current = rng.uniform(400.0, 5000.0)
        _, spikes = run_constant_current(params, current, 100.0, 0.1)
        times = np.array(spikes[0])
        assert len(times) > 0
        if len(times) > 1:
            assert np.diff(times).min() >= params.t_ref - 1e-9


# -- alpha-kernel synapses -----------------------------------------------------


def test_alpha_kernel_peak_equals_weight(params):
    # one excitatory spike of weight w: current peaks at w when s = tau_syn_ex
    w = 123.0
    state = new_state(1, params)
    deliver_spike(state, np.array([w]), "excitatory", params)
    dt = 0.001
    peak, peak_t = -1.0, None
    for k in range(int(5.0 / dt)):
        state, _ = step_neuron(state, params, np.zeros(1), dt)
        if state.y2_ex[0] > peak:
            peak, peak_t = state.y2_ex[0], (k + 1) * dt
    assert peak == pytest.approx(w, rel=1e-6)
    assert peak_t == pytest.approx(params.tau_syn_ex, abs=2 * dt)


def test_coincident_spikes_superpose(params):
    a = new_state(1, params)
    deliver_spike(a, np.array([40.0]), "excitatory", params)
    deliver_spike(a, np.array([40.0]), "excitatory", params)
    b = new_state(1, params)
    deliver_spike(b, np.array([80.0]), "excitatory", params)
    for _ in range(200):
        a, _ = step_neuron(a, params, np.zeros(1), 0.1)
        b, _ = step_neuron(b, params, np.zeros(1), 0.1)
        assert a.V_m[0] == pytest.approx(b.V_m[0], abs=1e-12)


def test_zero_weight_is_noop(params):
    state = new_state(1, params)
    before = state.copy()
    deliver_spike(state, np.zeros(1), "excitatory", params)
    assert np.array_equal(state.y1_ex, before.y1_ex)
    assert np.array_equal(state.y2_ex, before.y2_ex)


def test_sign_contract(params):
    state = new_state(1, params)
    with pytest.raises(ValueError):
        deliver_spike(state, np.array([-1.0]), "excitatory", params)
    with pytest.raises(ValueError):
        deliver_spike(state, np.array([1.0]), "inhibitory", params)
    with pytest.raises(ValueError):
        deliver_spike(state, np.array([np.nan]), "excitatory", params)


def test_inhibitory_channel_lowers_potential(params):
    state = new_state(1, params)
    deliver_spike(state, np.array([-200.0]), "inhibitory", params)
    for _ in range(50):
        state, _ = step_neuron(state, params, np.zeros(1), 0.1)
    assert state.V_m[0] < params.E_L


def test_degenerate_tau_syn_equal_tau_m():
    # closed-form propagators must stay finite and match the nearby limit
    p_eq = NeuronParams(tau_syn_ex=5.0)   # == tau_m
    p_near = NeuronParams(tau_syn_ex=5.0 + 1e-7)
    a, b = propagators(p_eq, 0.1), propagators(p_near, 0.1)
    assert a.P31_ex == pytest.approx(b.P31_ex, rel=1e-5)
    assert a.P32_ex == pytest.approx(b.P32_ex, rel=1e-5)
    state = new_state(1, p_eq)
    deliver_spike(state, np.array([100.0]), "excitatory", p_eq)
    for _ in range(100):
        state, _ = step_neuron(state, p_eq, np.zeros(1), 0.1)
        assert np.isfinite(state.V_m[0])


# -- reset and validation ------------------------------------------------------


def test_reset_state(params):
    state, spikes = run_constant_current(params, 900.0, 50.0, 0.1)
    assert spikes[0]
    state = reset_state(state, params)
    assert state.V_m[0] == params.E_L
    assert threshold_at(state, params)[0] == pytest.approx(-51.0)
    assert state.refractory_remaining[0] == 0.0
    again = reset_state(state, params)
    assert np.array_equal(again.V_m, state.V_m)
    # silent forever after reset with no input
    for _ in range(2000):
        state, fired = step_neuron(state, params, np.zeros(1), 0.1)
        assert not fired.any()


def test_nonfinite_input_rejected(params):
    state = new_state(1, params)
    with pytest.raises(ValueError):
        step_neuron(state, params, np.array([np.inf]), 0.1)


def test_dt_halving_stable_counts(params):
    # calibration-range robustness: halving dt moves counts by at most 1
    for frac in (0.0, 0.2, 0.5, 0.8, 1.0):
        current = frac * I_K_DEFAULT
        _, coarse = run_constant_current(params, current, 100.0, 0.1)
        _, fine = run_constant_current(params, current, 100.0, 0.05)
        assert abs(len(coarse[0]) - len(fine[0])) <= 1
