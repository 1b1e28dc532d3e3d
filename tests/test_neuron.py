"""Neuron-model oracles: analytic membrane trajectories, threshold decay,
refractoriness, alpha-kernel synapses, and dt robustness."""

import math
import re

import numpy as np
import pytest

from spikesim import NeuronParams, new_state, neuron, step_neuron
from spikesim.neuron import (REFRACTORY_EPS, NeuronState, StepKernel, deliver_spike,
                             propagators, threshold_at)

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
        for k in range(n_steps):
            state, fired = step_neuron(state, params, np.array([current]), dt)
            assert not fired.any()
            t = (k + 1) * dt
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
    for k in range(int(round(100.0 / dt))):
        state, _ = step_neuron(state, params, np.zeros(1), dt)
        t = (k + 1) * dt
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
    y1_ex, y2_ex = state.y1_ex.copy(), state.y2_ex.copy()
    deliver_spike(state, np.zeros(1), "excitatory", params)
    assert np.array_equal(state.y1_ex, y1_ex)
    assert np.array_equal(state.y2_ex, y2_ex)


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


# -- the prepared step kernel -----------------------------------------------------


def reference_step(state, params, I_ext, dt, validate=True):
    """step_neuron as it was before the StepKernel, verbatim but for the
    dropped `state.t += dt`: the arithmetic the kernel must reproduce bit for
    bit."""
    P = propagators(params, dt)
    I = np.asarray(I_ext, dtype=np.float64)
    if validate:
        if not np.all(np.isfinite(I)):
            raise ValueError("non-finite external current")
        for name in ("V_m", "h1", "h2", "y1_ex", "y2_ex", "y1_in", "y2_in"):
            if not np.all(np.isfinite(getattr(state, name))):
                raise ValueError(f"non-finite neuron state in {name}")

    V, h1, h2 = state.V_m, state.h1, state.h2
    y1e, y2e, y1i, y2i = state.y1_ex, state.y2_ex, state.y1_in, state.y2_in

    # membrane first: uses the channel values at the step start
    V -= params.E_L
    V *= P.P33
    V += params.E_L + P.drive * I
    V += P.P31_ex * y1e + P.P32_ex * y2e + P.P31_in * y1i + P.P32_in * y2i

    # alpha channels (y2 before y1: P21 needs the start-of-step y1; the decay
    # factor e^(-dt/tau_s) is shared by both stages)
    y2e *= P.P11_ex
    y2e += P.P21_ex * y1e
    y1e *= P.P11_ex
    y2i *= P.P11_in
    y2i += P.P21_in * y1i
    y1i *= P.P11_in

    # threshold decay and refractory countdown
    h1 *= P.decay_h1
    h2 *= P.decay_h2
    r = state.refractory_remaining
    np.subtract(r, dt, out=r)
    np.maximum(r, 0.0, out=r)

    spiked = (r <= REFRACTORY_EPS) & (V >= params.omega + h1 + h2)
    if spiked.any():
        h1[spiked] += params.alpha1
        h2[spiked] += params.alpha2
        r[spiked] = params.t_ref
    return state, spiked


STATE_ARRAYS = ("V_m", "h1", "h2", "y1_ex", "y2_ex", "y1_in", "y2_in",
                "refractory_remaining")


def random_state(rng, shape, params):
    """A state mid-simulation: membranes around threshold, raised thresholds,
    live synaptic channels, and a third of the neurons refractory."""
    state = new_state(shape, params)
    state.V_m[...] = rng.uniform(-75.0, -40.0, shape)
    state.h1[...] = rng.uniform(0.0, 40.0, shape)
    state.h2[...] = rng.uniform(0.0, 6.0, shape)
    state.y1_ex[...] = rng.uniform(0.0, 500.0, shape)
    state.y2_ex[...] = rng.uniform(0.0, 300.0, shape)
    state.y1_in[...] = rng.uniform(-200.0, 0.0, shape)
    state.y2_in[...] = rng.uniform(-150.0, 0.0, shape)
    state.refractory_remaining[...] = np.where(rng.random(shape) < 1 / 3,
                                               rng.uniform(0.0, params.t_ref, shape), 0.0)
    return state


def copy_state(state, row=...):
    return NeuronState(**{name: getattr(state, name)[row] for name in STATE_ARRAYS})


def random_deliveries(rng, shape, n_steps):
    """Per step, None or (excitatory, inhibitory) weights to deliver."""
    return [(rng.uniform(0.0, 300.0, shape) * (rng.random(shape) < 0.3),
             -rng.uniform(0.0, 300.0, shape) * (rng.random(shape) < 0.2))
            if rng.random() < 0.25 else None for _ in range(n_steps)]


def deliver(state, weights, params):
    if weights is not None:
        deliver_spike(state, weights[0], "excitatory", params)
        deliver_spike(state, weights[1], "inhibitory", params)


@pytest.mark.parametrize("shape", [(97,), (4, 53)])
def test_kernel_is_bit_identical_to_the_reference_step(params, shape):
    rng = np.random.default_rng(sum(shape))
    dt, n_steps = 0.1, 600
    # currents on both sides of the rheobase (380 pA)
    I_ext = rng.uniform(0.0, 2.0 * params.rheobase, shape)
    state = random_state(rng, shape, params)
    ref = copy_state(state)
    step = StepKernel(state, params, I_ext, dt)
    assert step.fused
    deliveries = random_deliveries(rng, shape, n_steps)
    n_spikes = n_refractory_blocked = 0
    for weights in deliveries:
        blocked = (state.refractory_remaining > dt + REFRACTORY_EPS).sum()
        _, mask = reference_step(ref, params, I_ext, dt)
        ids = step()
        assert np.array_equal(ids, np.flatnonzero(mask))
        for name in STATE_ARRAYS:
            assert getattr(state, name).tobytes() == getattr(ref, name).tobytes(), name
        n_spikes += ids.size
        n_refractory_blocked += blocked
        deliver(ref, weights, params)
        deliver(state, weights, params)
    assert n_spikes >= 50 and n_refractory_blocked > 0
    assert (I_ext < params.rheobase).any() and (I_ext > params.rheobase).any()


def test_step_neuron_is_one_kernel_step(params):
    rng = np.random.default_rng(3)
    shape = (3, 31)
    I_ext = rng.uniform(0.0, 800.0, shape)
    ref = random_state(rng, shape, params)
    state = copy_state(ref)
    for weights in random_deliveries(rng, shape, 500):
        _, want = reference_step(ref, params, I_ext, 0.1)
        out, got = step_neuron(state, params, I_ext, 0.1)
        assert out is state and got.shape == shape and got.dtype == bool
        assert np.array_equal(got, want)
        for name in STATE_ARRAYS:
            assert getattr(state, name).tobytes() == getattr(ref, name).tobytes(), name
        deliver(ref, weights, params)
        deliver(state, weights, params)


def test_a_batch_row_steps_as_it_would_alone(params):
    rng = np.random.default_rng(8)
    shape = (4, 29)
    I_ext = rng.uniform(0.0, 800.0, shape)
    batch = random_state(rng, shape, params)
    rows = [copy_state(batch, b) for b in range(shape[0])]
    batch_step = StepKernel(batch, params, I_ext, 0.1)
    row_steps = [StepKernel(row, params, I_ext[b], 0.1) for b, row in enumerate(rows)]
    for weights in random_deliveries(rng, shape, 500):
        ids = batch_step()
        for b, (row, row_step) in enumerate(zip(rows, row_steps)):
            row_ids = row_step()
            assert np.array_equal(ids[(ids >= b * shape[1]) & (ids < (b + 1) * shape[1])]
                                  - b * shape[1], row_ids)
            for name in STATE_ARRAYS:
                assert getattr(batch, name)[b].tobytes() == getattr(row, name).tobytes()
            if weights is not None:
                deliver(row, (weights[0][b], weights[1][b]), params)
        deliver(batch, weights, params)


def test_kernel_threshold_sums_omega_first(params):
    # V stays exactly at E_L without input; thresholds within a few ulps of
    # E_L after the step's decay, where (omega + h1) + h2 and
    # omega + (h1 + h2) round apart, decide the spike as the reference does
    p = NeuronParams(E_L=-50.0)
    P = propagators(p, 0.1)
    h1 = np.repeat(np.random.default_rng(4).uniform(0.0, 1.0, 400), 9)
    h2 = (p.E_L - p.omega - h1 * P.decay_h1) / P.decay_h2
    h2 = h2 + np.tile(np.arange(-4, 5), 400) * np.spacing(h2)
    state = new_state(h1.size, p)
    state.h1[:], state.h2[:] = h1, h2
    ref = copy_state(state)
    ids = StepKernel(state, p, 0.0, 0.1)()
    _, mask = reference_step(ref, p, 0.0, 0.1)
    assert np.array_equal(ids, np.flatnonzero(mask))
    h1d, h2d = h1 * P.decay_h1, h2 * P.decay_h2
    assert np.all(state.V_m == p.E_L)
    assert ((p.E_L >= (p.omega + h1d) + h2d) != (p.E_L >= p.omega + (h1d + h2d))).any()


def signed_zero_state(rng, shape, params):
    """random_state with about a quarter of every channel's entries at +0.0
    and another quarter at -0.0."""
    state = random_state(rng, shape, params)
    for name in ("y1_ex", "y2_ex", "y1_in", "y2_in"):
        pick = rng.integers(0, 4, shape)
        getattr(state, name)[pick == 0] = 0.0
        getattr(state, name)[pick == 1] = -0.0
    return state


@pytest.mark.parametrize("shape", [(15,), (111,), (1, 111), (5, 15), (6, 100), (1636,),
                                   (1, 1636), (2, 1536)])
def test_paired_and_unpaired_kernels_are_bit_identical(monkeypatch, params, shape):
    # the one-buffer ("fused") layout against the per-array one, with synapses
    # and, on a state with every channel at zero, without
    rng = np.random.default_rng(sum(shape) + 2)
    dt, n_steps, size = 0.1, 1000, math.prod(shape)
    # currents around the rheobase (380 pA)
    I_ext = rng.uniform(0.5, 1.5, shape) * params.rheobase
    for synapses, make_state in ((True, signed_zero_state), (False, quiet_state)):
        fused = make_state(rng, shape, params)
        twin = new_state(shape, params)
        for name in STATE_ARRAYS:
            getattr(twin, name)[...] = getattr(fused, name)
        hand_built = copy_state(fused)
        states = (fused, twin, hand_built)
        monkeypatch.setattr(neuron, "FUSE_MAX", size)
        steps = [StepKernel(fused, params, I_ext, dt, synapses), None,
                 StepKernel(hand_built, params, I_ext, dt, synapses)]
        monkeypatch.setattr(neuron, "FUSE_MAX", size - 1)
        steps[1] = StepKernel(twin, params, I_ext, dt, synapses)
        assert [step.fused for step in steps] == [True, False, True]
        n_spikes = 0
        for weights in random_deliveries(rng, shape, n_steps):
            ids = [step().tobytes() for step in steps]
            assert ids[0] == ids[1] == ids[2]
            for name in STATE_ARRAYS:
                got = [getattr(state, name).tobytes() for state in states]
                assert got[0] == got[1] == got[2], name
            n_spikes += steps[0].spiked.sum()
            for state in states:
                deliver(state, weights if synapses else None, params)
        assert n_spikes > size // 2


def test_kernel_layout_follows_the_size(params):
    at = neuron.FUSE_MAX
    layout = lambda state: StepKernel(state, params, 0.0, 0.1).fused
    assert layout(new_state(at, params))
    assert not layout(new_state(at + 1, params))
    # the batch counts: the bound is on the elements
    assert layout(new_state((2, at // 2), params))
    assert not layout(new_state((2, at // 2 + 1), params))
    # a state built from arrays is one buffer too
    assert layout(copy_state(new_state(15, params)))


def test_cached_step_constants_are_read_only(params):
    # every kernel for the same params and dt (and size) shares these arrays
    _, consts, channels = neuron._step_constants(params, 0.1)
    coefficients = neuron._buffer_coefficients(params, 0.1, 15)
    assert neuron._buffer_coefficients(params, 0.1, 15) is coefficients
    assert [a.size for a in coefficients] == [2 * 15, 4 * 15, 2 * 15, 7 * 15]
    for a in consts + channels + coefficients:
        assert not a.flags.writeable


def quiet_state(rng, shape, params):
    """random_state with every synaptic channel at zero, the inhibitory ones
    at -0.0, as a decayed negative value underflows."""
    state = random_state(rng, shape, params)
    for name in ("y1_ex", "y2_ex"):
        getattr(state, name)[...] = 0.0
    for name in ("y1_in", "y2_in"):
        getattr(state, name)[...] = -0.0
    return state


@pytest.mark.parametrize("shape", [(90,), (3, 45)])
def test_kernel_without_synapses_is_bit_identical_to_the_full_kernel(params, shape):
    rng = np.random.default_rng(sum(shape) + 1)
    dt, n_steps = 0.1, 1000
    # currents below, at and far above the rheobase; the last fire as fast
    # as the refractory period allows
    I_ext = np.resize([0.0, 0.5, 0.99, 1.0, 1.5, 3.0, 40.0], shape) * params.rheobase
    full = quiet_state(rng, shape, params)
    state = copy_state(full)
    full_step = StepKernel(full, params, I_ext, dt)
    step = StepKernel(state, params, I_ext, dt, synapses=False)
    counts = np.zeros(I_ext.size, dtype=np.int64)
    for _ in range(n_steps):
        ids = step()
        assert np.array_equal(ids, full_step())
        for name in STATE_ARRAYS:
            assert getattr(state, name).tobytes() == getattr(full, name).tobytes(), name
        counts[ids] += 1
    assert counts.max() == round(n_steps * dt / params.t_ref)
    assert (counts == 0).any() and ((counts > 0) & (counts < counts.max())).any()


STARTS = ("rest", "random", "signed_zero", "at_t_ref")


def refractory_start(rng, shape, params, start, synapses):
    """A start state: at rest; mid-simulation (random_state, or quiet_state
    for a kernel without synapses); or mid-simulation with every refractory
    time at +0.0 or -0.0, or at +0.0 or exactly t_ref."""
    if start == "rest":
        return new_state(shape, params)
    state = (random_state if synapses else quiet_state)(rng, shape, params)
    r = state.refractory_remaining
    if start == "signed_zero":
        r[...] = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    elif start == "at_t_ref":
        r[...] = np.where(rng.random(shape) < 0.3, params.t_ref, 0.0)
    return state


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("dt", [0.1, 0.2, 0.3, 0.7, 0.013])
@pytest.mark.parametrize("synapses", [True, False], ids=["synapses", "no_synapses"])
@pytest.mark.parametrize("fused", [True, False], ids=["one_buffer", "per_array"])
def test_cold_steps_are_bit_identical_to_the_reference_step(monkeypatch, params, fused, synapses,
                                                            dt, start):
    # a kernel leaves out the refractory countdown and gate ("cold") only
    # while every r is +0.0. Currents below the rheobase and a kick of V_m
    # every 8 ms: each kick fires a burst whose second spike waits out the
    # first's refractory time at threshold, then the population falls silent
    rng = np.random.default_rng([STARTS.index(start), round(dt * 1000), int(synapses)])
    shape = (3, 10)
    state = refractory_start(rng, shape, params, start, synapses)
    if not fused:
        monkeypatch.setattr(neuron, "FUSE_MAX", 0)
    ref = copy_state(state)
    I_ext = rng.uniform(0.0, 0.9, shape) * params.rheobase
    step = StepKernel(state, params, I_ext, dt, synapses)
    assert step.fused == fused
    n_steps, every = round(60.0 / dt), round(8.0 / dt)
    deliveries = random_deliveries(rng, shape, n_steps) if synapses else [None] * n_steps
    n_cold = n_gated = 0
    for k, weights in enumerate(deliveries):
        if k % every == every // 2:
            kick = rng.random(shape) < 0.2
            state.V_m[kick] += 60.0
            ref.V_m[kick] += 60.0
        cold = step._hot == 0
        blocked = np.maximum(ref.refractory_remaining - dt, 0.0) > REFRACTORY_EPS
        _, mask = reference_step(ref, params, I_ext, dt)
        ids = step()
        assert np.array_equal(ids, np.flatnonzero(mask))
        assert step.spiked.tobytes() == mask.tobytes()
        for name in STATE_ARRAYS:
            assert getattr(state, name).tobytes() == getattr(ref, name).tobytes(), (k, name)
        n_cold += cold
        # a blocked neuron did not fire, so its threshold is the tested one
        n_gated += not cold and (blocked & (ref.V_m >= params.omega + ref.h1 + ref.h2)).any()
        deliver(ref, weights, params)
        deliver(state, weights, params)
    assert n_cold > 0 and n_gated > 0


@pytest.mark.parametrize("channel", ["y1_ex", "y2_ex", "y1_in", "y2_in"])
def test_kernel_without_synapses_refuses_a_live_channel(params, channel):
    state = new_state((2, 3), params)
    getattr(state, channel)[1, 2] = 1e-300 if channel.endswith("ex") else -1e-300
    with pytest.raises(ValueError, match=rf"^{channel} is not all zero"):
        StepKernel(state, params, np.zeros(3), 0.1, synapses=False)
    StepKernel(state, params, np.zeros(3), 0.1)   # the full kernel integrates it


# -- validation ------------------------------------------------------------------


@pytest.mark.parametrize("value", [np.nan, -np.inf])
@pytest.mark.parametrize("name", STATE_ARRAYS)
@pytest.mark.parametrize("build", [new_state, lambda shape, p: copy_state(new_state(shape, p))],
                         ids=["new_state", "hand-built"])
def test_kernel_refuses_a_non_finite_state_array(params, build, name, value):
    state = build((2, 3), params)
    getattr(state, name)[1, 2] = value
    with pytest.raises(ValueError, match=rf"^non-finite neuron state in {name}$"):
        StepKernel(state, params, np.zeros(3), 0.1)


@pytest.mark.parametrize("build", [new_state, lambda shape, p: copy_state(new_state(shape, p))],
                         ids=["new_state", "hand-built"])
def test_kernel_refuses_a_refractory_time_outside_its_range(params, build):
    for value in (-1e-3, params.t_ref + 1e-3):
        state = build((2, 3), params)
        state.refractory_remaining[1, 2] = value
        with pytest.raises(ValueError, match=r"^refractory_remaining outside \[0, t_ref\]"):
            StepKernel(state, params, np.zeros(3), 0.1)
    state = build((2, 3), params)
    state.refractory_remaining[0] = -0.0
    state.refractory_remaining[1] = params.t_ref
    StepKernel(state, params, np.zeros(3), 0.1)


@pytest.mark.parametrize("state_shape, current_shape", [((3,), (4,)), ((2000,), (4,)),
                                                       ((2000,), (2, 2000)), ((2, 3), (2,))])
def test_kernel_refuses_a_current_that_does_not_broadcast(params, state_shape, current_shape):
    state = new_state(state_shape, params)
    message = (f"external current of shape {current_shape} does not broadcast "
               f"to the state's shape {state_shape}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        StepKernel(state, params, np.zeros(current_shape), 0.1)
    StepKernel(state, params, np.zeros(state_shape[-1:]), 0.1)


# -- the state buffer ----------------------------------------------------------


def test_a_state_is_one_buffer_of_its_fields(params):
    state = random_state(np.random.default_rng(2), (2, 3), params)
    assert state.buf.shape == (8, 2, 3) and state.buf.dtype == np.float64
    for k, name in enumerate(neuron._ROWS):
        row = getattr(state, name)
        assert row.base is state.buf and row.tobytes() == state.buf[k].tobytes(), name


def test_stepping_a_state_leaves_the_arrays_it_was_built_from_alone(params):
    rng = np.random.default_rng(6)
    built = random_state(rng, (40,), params)
    arrays = {name: getattr(built, name).copy() for name in STATE_ARRAYS}
    kept = {name: a.copy() for name, a in arrays.items()}
    state = NeuronState(**arrays)
    step = StepKernel(state, params, np.full(40, 2.0 * params.rheobase), 0.1)
    assert sum(step().size for _ in range(200)) > 0
    for name in STATE_ARRAYS:
        assert arrays[name].tobytes() == kept[name].tobytes(), name


def test_a_float32_state_steps_as_its_values_in_float64(params):
    rng = np.random.default_rng(7)
    values = random_state(rng, (50,), params)
    rounded = {name: getattr(values, name).astype(np.float32) for name in STATE_ARRAYS}
    single = NeuronState(**rounded)
    double = NeuronState(**{name: a.astype(np.float64) for name, a in rounded.items()})
    assert single.buf.dtype == np.float64
    I_ext = rng.uniform(1.0, 2.0, 50) * params.rheobase
    steps = [StepKernel(state, params, I_ext, 0.1) for state in (single, double)]
    n_spikes = 0
    for weights in random_deliveries(rng, (50,), 500):
        ids = [step() for step in steps]
        assert np.array_equal(ids[0], ids[1])
        assert single.buf.tobytes() == double.buf.tobytes()
        n_spikes += ids[0].size
        deliver(single, weights, params)
        deliver(double, weights, params)
    assert n_spikes > 50


@pytest.mark.parametrize("name", STATE_ARRAYS[1:])
def test_a_state_refuses_a_field_of_another_shape_by_name(params, name):
    fields = {field: np.zeros(3) for field in STATE_ARRAYS}
    for other in (np.zeros(4), np.zeros((1, 3)), np.float64(0.0)):
        fields[name] = other
        with pytest.raises(ValueError, match=rf"^{name} has shape {re.escape(str(other.shape))},"
                                             r" not V_m's \(3,\)$"):
            NeuronState(**fields)


@pytest.mark.parametrize("shape", [(), (0,), (2, 0)])
def test_a_state_refuses_a_shape_without_neurons(shape):
    with pytest.raises(ValueError, match=rf"^V_m has shape {re.escape(str(shape))}"):
        NeuronState(*[np.zeros(shape)] * len(STATE_ARRAYS))


@pytest.mark.parametrize("name", STATE_ARRAYS + ("buf",))
def test_a_state_field_cannot_be_assigned(params, name):
    state = new_state(3, params)
    with pytest.raises(AttributeError):
        setattr(state, name, np.zeros(3))


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
