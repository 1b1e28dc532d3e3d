"""Plasticity rules against brute-force oracles: trace STDP vs the all-pairs
double sum, ReSuMe closed forms, clipping, and freezing."""

import numpy as np
import pytest

from spikesim import SpikeRecord
from spikesim.plasticity import (TAU_TRACE, StdpParams, ResumeParams,
                                 decay_traces, freeze, resume_update,
                                 resume_window, stdp_on_pre, stdp_on_post)
from spikesim.topology import _wire

from conftest import population

DT = 0.1


def make_pair(sign, w0, plasticity):
    return population(
        name="p", pre_index=np.array([0]), post_index=np.array([0]),
        weight=np.array([float(w0)]), sign=sign, n_pre=1, n_post=1,
        plasticity=plasticity)


def random_train_steps(rng, max_spikes, n_steps):
    k = rng.integers(0, max_spikes + 1)
    return np.unique(rng.integers(0, n_steps, size=k))


def pair_step(pop, trace, pre, post):
    """One step of a 1-to-1 pair in the engine's order; `trace` holds the
    [pre, post] neuron traces. The pre event reads the post trace before the
    step's bumps, the post event the pre trace after them."""
    if pre:
        stdp_on_pre(pop, 0, trace[1:])
    trace += [float(pre), float(post)]
    if post:
        stdp_on_post(pop, 0, trace[:1])


def replay_trace_stdp(pop, pre_steps, post_steps):
    """Drive the event API exactly as the simulator does, in step order."""
    events = sorted(set(pre_steps) | set(post_steps))
    trace = np.zeros(2)
    prev = None
    for k in events:
        if prev is not None:
            decay_traces(trace, (k - prev) * DT)
        elif k > 0:
            decay_traces(trace, k * DT)
        pair_step(pop, trace, k in set(pre_steps), k in set(post_steps))
        prev = k
    return pop


def all_pairs_delta(pre_steps, post_steps, p, sign):
    """Independent oracle: double sum over all (pre, post) spike pairs.

    Depression pairs are strictly post-before-pre; coincident pairs count as
    potentiation (pre events are processed before post events in a step).
    """
    tp = pre_steps.astype(np.float64) * DT
    tq = post_steps.astype(np.float64) * DT
    pot = dep = 0.0
    if tp.size and tq.size:
        d = tq[None, :] - tp[:, None]
        pot = float(np.sum(np.where(d >= 0.0, np.exp(-d / TAU_TRACE), 0.0)))
        dep = float(np.sum(np.where(d < 0.0, np.exp(d / TAU_TRACE), 0.0)))
    delta = p.A_plus * p.W_max * pot - p.A_minus * p.W_max * dep
    return delta if sign == "excitatory" else -delta


def test_stdp_equals_all_pairs_double_sum():
    rng = np.random.default_rng(42)
    n_steps = 10_000   # 1000 ms at 0.1 ms
    for case in range(100):
        sign = "excitatory" if case % 3 else "inhibitory"
        w0 = 600.0 if sign == "excitatory" else -600.0
        pop = make_pair(sign, w0, StdpParams())
        pre = random_train_steps(rng, 100, n_steps)
        post = random_train_steps(rng, 100, n_steps)
        replay_trace_stdp(pop, pre, post)
        expected = w0 + all_pairs_delta(pre, post, pop.plasticity, sign)
        lo, hi = pop._bounds()
        assert lo < expected < hi, "case must stay clear of clipping"
        assert pop.weight[0] == pytest.approx(expected, abs=1e-9)


def test_coincident_pair_potentiates():
    # same-step pre and post: pre first, so the pair lands at delta t = 0
    pop = make_pair("excitatory", 600.0, StdpParams())
    pair_step(pop, np.zeros(2), True, True)
    p = pop.plasticity
    assert pop.weight[0] == pytest.approx(600.0 + p.A_plus * p.W_max, abs=1e-12)


def test_post_before_pre_depresses():
    pop = make_pair("excitatory", 600.0, StdpParams())
    p = pop.plasticity
    trace = np.zeros(2)
    pair_step(pop, trace, False, True)
    decay_traces(trace, 5.0)
    pair_step(pop, trace, True, False)
    expected = 600.0 - p.A_minus * p.W_max * np.exp(-5.0 / TAU_TRACE)
    assert pop.weight[0] == pytest.approx(expected, abs=1e-12)


def test_inhibitory_potentiation_grows_magnitude():
    pop = make_pair("inhibitory", -100.0, StdpParams())
    pair_step(pop, np.zeros(2), True, True)
    assert pop.weight[0] < -100.0


def test_clipping_saturates_at_bounds():
    hot = StdpParams(A_plus=0.9, A_minus=0.0, W_max=1200.0)
    pop = make_pair("excitatory", 1100.0, hot)
    trace = np.zeros(2)
    for k in range(10):
        decay_traces(trace, DT)
        pair_step(pop, trace, True, True)
        assert 0.0 <= pop.weight[0] <= 1200.0
    assert pop.weight[0] == 1200.0

    pop = make_pair("inhibitory", -1100.0, StdpParams(
        A_plus=0.9, A_minus=0.0, W_max=1200.0))
    trace = np.zeros(2)
    for k in range(10):
        decay_traces(trace, DT)
        pair_step(pop, trace, True, True)
        assert -1200.0 <= pop.weight[0] <= 0.0
    assert pop.weight[0] == -1200.0


def test_table_parameter_defaults():
    p = StdpParams()
    assert (p.A_plus, p.A_minus, TAU_TRACE, p.W_max) == (0.001, 0.0005, 10.0, 1200.0)
    r = ResumeParams()
    assert (r.A, r.tau, r.W_max) == (0.001, 10.0, 1200.0)


def test_stdp_requires_stdp_mode():
    pop = make_pair("excitatory", 600.0, None)
    with pytest.raises(ValueError):
        stdp_on_pre(pop, 0, np.zeros(1))


# -- ReSuMe -------------------------------------------------------------------


def rec(times, window=100.0):
    return SpikeRecord([np.asarray(t, dtype=np.float64) for t in times], window)


def test_resume_window_closed_form():
    p = ResumeParams()
    rng = np.random.default_rng(9)
    s = rng.uniform(-50.0, 50.0, size=1000)
    w = resume_window(s, p)
    causal = s > 0.0
    assert np.allclose(w[causal], p.A * np.exp(-s[causal] / p.tau), atol=1e-15)
    assert np.all(w[~causal] == 0.0)
    assert resume_window(0.0, p) == 0.0
    assert resume_window(-1.0, p) == 0.0


def test_resume_identical_trains_cancel_exactly():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = np.unique(rng.uniform(0.0, 100.0, size=rng.integers(0, 20)))
        pre = np.unique(rng.uniform(0.0, 100.0, size=10))
        pop = make_pair("excitatory", 241.0, ResumeParams())
        before = pop.weight.copy()
        resume_update(pop, rec([t]), rec([t]), rec([pre]), 100.0)
        assert np.array_equal(pop.weight, before)


def test_resume_single_pair_closed_form():
    p = ResumeParams()
    for d in (0.5, 3.0, 10.0, 40.0):
        pop = make_pair("excitatory", 241.0, p)
        resume_update(pop, rec([[20.0 + d]]), rec([[]]), rec([[20.0]]), 100.0)
        assert pop.weight[0] == pytest.approx(
            241.0 + p.W_max * p.A * np.exp(-d / p.tau), abs=1e-12)
        # the same amplitude grows an inhibitory weight's magnitude
        pop = make_pair("inhibitory", -120.0, p)
        resume_update(pop, rec([[20.0 + d]]), rec([[]]), rec([[20.0]]), 100.0)
        assert pop.weight[0] == pytest.approx(
            -120.0 - p.W_max * p.A * np.exp(-d / p.tau), abs=1e-12)
    # teacher before the pre spike contributes nothing
    pop = make_pair("excitatory", 241.0, ResumeParams())
    resume_update(pop, rec([[10.0]]), rec([[]]), rec([[20.0]]), 100.0)
    assert pop.weight[0] == 241.0
    # coincident pre and teacher: window is 0 at s = 0
    pop = make_pair("excitatory", 241.0, ResumeParams())
    resume_update(pop, rec([[20.0]]), rec([[]]), rec([[20.0]]), 100.0)
    assert pop.weight[0] == 241.0


def test_resume_sign_contract_random_sweep():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n_pre = rng.integers(1, 4)
        pre = [np.unique(rng.uniform(0, 100, size=rng.integers(1, 6)))
               for _ in range(n_pre)]
        spikes = np.unique(rng.uniform(0, 100, size=rng.integers(1, 6)))
        if rng.random() < 0.5:
            teacher, actual, direction = [spikes], [[]], +1.0
        else:
            teacher, actual, direction = [[]], [spikes], -1.0
        sign = "excitatory" if rng.random() < 0.5 else "inhibitory"
        w0 = 241.0 if sign == "excitatory" else -120.0
        plast = ResumeParams()
        pop = population(
            name="p", pre_index=np.arange(n_pre),
            post_index=np.zeros(n_pre, dtype=np.int64),
            weight=np.full(n_pre, w0), sign=sign, n_pre=int(n_pre), n_post=1,
            plasticity=plast)
        resume_update(pop, rec(teacher), rec(actual), rec(pre), 100.0)
        delta = pop.weight - w0
        # teacher spikes push toward firing: excitatory up, inhibitory down
        # in magnitude; actual spikes push the opposite way
        if sign == "excitatory":
            assert np.all(direction * delta >= 0.0)
        else:
            assert np.all(direction * delta <= 0.0)


def test_resume_requires_matching_record_sizes():
    pop = make_pair("excitatory", 241.0, ResumeParams())
    with pytest.raises(ValueError):
        resume_update(pop, rec([[], []]), rec([[]]), rec([[]]), 100.0)
    with pytest.raises(ValueError):
        resume_update(pop, rec([[]]), rec([[]]), rec([[], []]), 100.0)


def test_resume_requires_resume_mode():
    pop = make_pair("excitatory", 600.0, StdpParams())
    with pytest.raises(ValueError):
        resume_update(pop, rec([[]]), rec([[]]), rec([[]]), 100.0)


# -- freezing and population mechanics -----------------------------------------


def test_freeze_preserves_weights_and_is_idempotent():
    pop = make_pair("excitatory", 600.0, StdpParams())
    pair_step(pop, np.zeros(2), True, True)
    w = pop.weight.copy()
    freeze(pop)
    assert pop.mode == "static"
    assert np.array_equal(pop.weight, w)
    freeze(pop)
    assert np.array_equal(pop.weight, w)


def test_population_sign_validation():
    with pytest.raises(ValueError):
        population(name="bad", pre_index=np.array([0]),
                   post_index=np.array([0]), weight=np.array([-1.0]),
                   sign="excitatory", n_pre=1, n_post=1)
    with pytest.raises(ValueError):
        population(name="bad", pre_index=np.array([0]),
                   post_index=np.array([0]), weight=np.array([1.0]),
                   sign="inhibitory", n_pre=1, n_post=1)


def test_stdp_ids_out_of_range_rejected():
    pop = make_pair("excitatory", 600.0, StdpParams())
    with pytest.raises(IndexError):
        stdp_on_pre(pop, 3, np.zeros(1))
    with pytest.raises(IndexError):
        stdp_on_post(pop, -1, np.zeros(1))


def test_stdp_trace_of_wrong_length_rejected():
    # a pre event reads one trace per post neuron, a post event one per pre
    pre, post = np.nonzero(_wire("all_to_all", 2, 3))
    pop = population(name="p", pre_index=pre, post_index=post,
                     weight=np.full(6, 600.0), sign="excitatory",
                     n_pre=2, n_post=3, plasticity=StdpParams())
    for bad in (np.ones(2), np.ones(4), np.ones((1, 3)), np.ones(())):
        with pytest.raises(ValueError, match="trace"):
            stdp_on_pre(pop, 0, bad)
    for bad in (np.ones(3), np.ones(1), np.ones((2, 1))):
        with pytest.raises(ValueError, match="trace"):
            stdp_on_post(pop, 0, bad)
    assert np.array_equal(pop.weight, np.full(6, 600.0))
    stdp_on_pre(pop, [0, 1], np.ones(3))
    stdp_on_post(pop, [0, 1, 2], np.ones(2))


def two_by_three():
    pre, post = np.nonzero(_wire("all_to_all", 2, 3))
    return population(name="p", pre_index=pre, post_index=post,
                      weight=np.full(6, 600.0), sign="excitatory",
                      n_pre=2, n_post=3, plasticity=StdpParams())


def test_stdp_repeated_ids_rejected():
    # the ids of one event are distinct; a repeated id would count once
    pop = two_by_three()
    with pytest.raises(ValueError, match="repeated pre id"):
        stdp_on_pre(pop, [0, 0], np.ones(3))
    with pytest.raises(ValueError, match="repeated post id"):
        stdp_on_post(pop, [2, 1, 2], np.ones(2))
    assert np.array_equal(pop.weight, np.full(6, 600.0))


def test_stdp_non_integer_ids_rejected():
    # 0.7 would be truncated to neuron 0
    pop = two_by_three()
    with pytest.raises(ValueError, match="integers"):
        stdp_on_pre(pop, [0.7], np.ones(3))
    with pytest.raises(ValueError, match="integers"):
        stdp_on_post(pop, np.array([1.0]), np.ones(2))
    assert np.array_equal(pop.weight, np.full(6, 600.0))
    stdp_on_pre(pop, [], np.ones(3))    # an empty event stays a no-op
    assert np.array_equal(pop.weight, np.full(6, 600.0))


def test_stdp_non_finite_trace_rejected():
    # np.clip keeps a NaN, so it would stay in W
    pop = two_by_three()
    with pytest.raises(ValueError, match="non-finite trace"):
        stdp_on_pre(pop, 0, np.array([1.0, np.nan, 1.0]))
    with pytest.raises(ValueError, match="non-finite trace"):
        stdp_on_post(pop, [0, 2], np.array([np.inf, 0.5]))
    assert np.array_equal(pop.weight, np.full(6, 600.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["A", "tau", "W_max"])
def test_resume_constants_must_be_finite(field, bad):
    # a finite band and amplitude keep a settled W finite
    with pytest.raises(ValueError, match="ReSuMe constants must be finite"):
        ResumeParams(**{field: bad})


def test_resume_amplitude_is_a_magnitude():
    # the projection's sign is the only sign: a negative A would turn the
    # rule around on one projection but not the other
    with pytest.raises(ValueError, match="must be non-negative"):
        ResumeParams(A=-0.001)


@pytest.mark.parametrize("field", ["A_plus", "A_minus", "W_max"])
def test_stdp_constants_must_be_finite(field):
    # a loop checks its weights once; events clipped to a finite band with
    # finite rates keep them finite after that
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            StdpParams(**{field: bad})
