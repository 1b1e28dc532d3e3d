"""Dense weight matrices against per-connection reference implementations.

The references below keep the connection-list formulation of the engine:
delivery as a bincount over the spiking pre neurons' connections, STDP
events as gathers and scatters on the flat weight array, and the supervised
rule as kernel sums over every (event, pre spike) pair. The dense kernels
must reproduce delivery and STDP exactly and the supervised rule to 1e-12,
on every wiring rule, for both signs, and with a clip band whose lower end
is above 0 (which would pull non-connections off 0 if they were not masked).
"""

import numpy as np
import pytest

from spikesim import SpikeRecord, SynapsePopulation
from spikesim.plasticity import (ResumeParams, StdpParams, resume_update,
                                 stdp_on_post, stdp_on_pre)
from spikesim.topology import _cross_class_pairs, connect


# -- per-connection references ------------------------------------------------


def connections_by_pre(pop, pre_ids):
    order = np.argsort(pop.pre_index, kind="stable")
    starts = np.searchsorted(pop.pre_index[order], np.arange(pop.n_pre + 1))
    pre_ids = np.atleast_1d(pre_ids)
    if pre_ids.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([order[starts[i]:starts[i + 1]] for i in pre_ids])


def connections_by_post(pop, post_ids):
    order = np.argsort(pop.post_index, kind="stable")
    starts = np.searchsorted(pop.post_index[order], np.arange(pop.n_post + 1))
    post_ids = np.atleast_1d(post_ids)
    if post_ids.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([order[starts[i]:starts[i + 1]] for i in post_ids])


def ref_delivery(pop, w, pre_ids):
    conns = connections_by_pre(pop, pre_ids)
    return np.bincount(pop.post_index[conns], weights=w[conns], minlength=pop.n_post)


def ref_stdp_on_pre(pop, w, post_trace, ids):
    p = pop.plasticity
    conns = connections_by_pre(pop, ids)
    step = p.A_minus * p.W_max * post_trace[pop.post_index[conns]]
    v = w[conns]
    if pop.sign == "excitatory":
        v -= step
    else:
        v += step
    w[conns] = np.clip(v, *pop._bounds())


def ref_stdp_on_post(pop, w, pre_trace, ids):
    p = pop.plasticity
    conns = connections_by_post(pop, ids)
    step = p.A_plus * p.W_max * pre_trace[pop.pre_index[conns]]
    v = w[conns]
    if pop.sign == "excitatory":
        v += step
    else:
        v -= step
    w[conns] = np.clip(v, *pop._bounds())


def causal_kernel_sums(pre_times, event_times, params):
    out = np.zeros(len(pre_times), dtype=np.float64)
    if event_times.size == 0:
        return out
    for i, tp in enumerate(pre_times):
        if tp.size == 0:
            continue
        d = event_times[None, :] - tp[:, None]
        k = np.where(d > 0.0, params.A * np.exp(-d / params.tau), 0.0)
        out[i] = k.sum()
    return out


def ref_resume(pop, w, teacher, actual, pre):
    p = pop.plasticity
    S = np.zeros((pop.n_pre, pop.n_post))
    for j in range(pop.n_post):
        td, to = teacher.times[j], actual.times[j]
        if td.size == to.size and np.array_equal(td, to):
            continue
        if td.size:
            S[:, j] += causal_kernel_sums(pre.times, td, p)
        if to.size:
            S[:, j] -= causal_kernel_sums(pre.times, to, p)
    sign = 1.0 if pop.sign == "excitatory" else -1.0
    w += sign * p.W_max * S[pop.pre_index, pop.post_index]
    np.clip(w, *pop._bounds(), out=w)


# -- random projections of every wiring rule -----------------------------------


def wiring(rule, rng):
    if rule == "all_to_all":
        n_pre, n_post = rng.integers(1, 30, size=2)
        return (*connect("all_to_all", n_pre, n_post), n_pre, n_post)
    if rule in ("one_to_one", "one_to_all_except_partner"):
        n = int(rng.integers(2, 30))
        return (*connect(rule, n, n), n, n)
    if rule == "cross_class":
        n_classes, per_class = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        n = n_classes * per_class
        return (*_cross_class_pairs(n_classes, per_class), n, n)
    assert rule == "partitioned"
    n_post, part = int(rng.integers(1, 10)), int(rng.integers(1, 5))
    pre = np.arange(n_post * part)
    return pre, pre // part, n_post * part, n_post


RULES = ("all_to_all", "one_to_one", "one_to_all_except_partner",
         "cross_class", "partitioned")


def random_population(rng, rule, sign, plasticity):
    pre, post, n_pre, n_post = wiring(rule, rng)
    lo, hi = plasticity.W_min, plasticity.W_max
    mag = rng.uniform(lo, hi, size=pre.size)
    return SynapsePopulation(
        name=rule, pre_index=pre, post_index=post,
        weight=mag if sign == "excitatory" else -mag, sign=sign,
        n_pre=int(n_pre), n_post=int(n_post), plasticity=plasticity)


def off_connections(pop):
    on = np.zeros((pop.n_pre, pop.n_post), dtype=bool)
    on[pop.pre_index, pop.post_index] = True
    return pop.W[~on]


def assert_masked(pop):
    off = off_connections(pop)
    assert np.all(off == 0.0) and not np.any(np.signbit(off))


CASES = [(rule, sign, w_min) for rule in RULES
         for sign in ("excitatory", "inhibitory") for w_min in (0.0, 150.0)]


@pytest.mark.parametrize("rule,sign,w_min", CASES)
def test_delivery_equals_connection_bincount(rule, sign, w_min):
    rng = np.random.default_rng([RULES.index(rule), sign == "excitatory", int(w_min)])
    for _ in range(20):
        pop = random_population(rng, rule, sign, StdpParams(W_min=w_min))
        w = pop.weight.copy()
        for _ in range(5):
            k = int(rng.integers(1, pop.n_pre + 1))
            ids = np.sort(rng.choice(pop.n_pre, size=k, replace=False))
            assert np.array_equal(pop.summed_input(ids), ref_delivery(pop, w, ids))


def test_delivery_onto_a_single_post_neuron_keeps_the_order():
    # a lone column is where a plain numpy sum would switch to pairwise order
    rng = np.random.default_rng(4)
    pre, post = connect("all_to_all", 300, 1)
    w = rng.uniform(0.0, 1200.0, size=300) * 10.0 ** rng.uniform(-6, 0, size=300)
    pop = SynapsePopulation(name="lone", pre_index=pre, post_index=post, weight=w,
                            sign="excitatory", n_pre=300, n_post=1)
    for k in (1, 2, 8, 9, 64, 300):
        ids = np.sort(rng.choice(300, size=k, replace=False))
        assert np.array_equal(pop.summed_input(ids), ref_delivery(pop, w, ids))


@pytest.mark.parametrize("rule,sign,w_min", CASES)
def test_stdp_events_equal_connection_updates(rule, sign, w_min):
    rng = np.random.default_rng([7, RULES.index(rule), sign == "excitatory", int(w_min)])
    hot = StdpParams(A_plus=0.2, A_minus=0.15, W_min=w_min, W_max=1200.0)
    at_bounds = [False, False]
    for _ in range(10):
        pop = random_population(rng, rule, sign, hot)
        w = pop.weight.copy()
        for _ in range(30):
            # random traces, so that updates drive weights into both bounds
            pre_trace = rng.uniform(0.0, 5.0, size=pop.n_pre)
            post_trace = rng.uniform(0.0, 5.0, size=pop.n_post)
            # every neuron at once (a volley: the in-place path of a post
            # event) or a random subset
            n_pre = pop.n_pre if rng.random() < 0.3 else int(rng.integers(1, pop.n_pre + 1))
            n_post = pop.n_post if rng.random() < 0.3 else int(rng.integers(1, pop.n_post + 1))
            pre_ids = np.sort(rng.choice(pop.n_pre, size=n_pre, replace=False))
            post_ids = np.sort(rng.choice(pop.n_post, size=n_post, replace=False))
            if rng.random() < 0.7:
                ref_stdp_on_pre(pop, w, post_trace.copy(), pre_ids)
                stdp_on_pre(pop, pre_ids, post_trace)
                pre_trace[pre_ids] += 1.0
            if rng.random() < 0.5:
                ref_stdp_on_post(pop, w, pre_trace.copy(), post_ids)
                stdp_on_post(pop, post_ids, pre_trace)
            assert np.array_equal(pop.weight, w)
            assert_masked(pop)
        lo, hi = pop._bounds()
        at_bounds = [at_bounds[0] or np.any(w == lo), at_bounds[1] or np.any(w == hi)]
    assert all(at_bounds), "updates must reach both bounds"


@pytest.mark.parametrize("sign", ["excitatory", "inhibitory"])
def test_stdp_signed_zeros_equal_connection_updates(sign):
    # with W_min = 0 a bound is +0.0 (excitatory) or -0.0 (inhibitory); a
    # zero-trace event adds a signed zero, and only np.clip keeps the sign
    # of a zero at such a bound the way the references do
    rng = np.random.default_rng([19, sign == "excitatory"])
    params = StdpParams(A_plus=0.2, A_minus=0.15, W_min=0.0, W_max=1200.0)
    seen = set()
    for rule in RULES:
        pop = random_population(rng, rule, sign, params)
        pop.weight = np.where(rng.random(pop.n_connections) < 0.5, 0.0, -0.0)
        w = pop.weight.copy()
        for _ in range(40):
            scale = 0.0 if rng.random() < 0.5 else 5.0
            pre_trace = rng.uniform(0.0, scale, size=pop.n_pre)
            post_trace = rng.uniform(0.0, scale, size=pop.n_post)
            volley = rng.random() < 0.5
            pre_ids = np.arange(pop.n_pre) if volley else np.sort(rng.choice(
                pop.n_pre, size=int(rng.integers(1, pop.n_pre + 1)), replace=False))
            post_ids = np.arange(pop.n_post) if volley else np.sort(rng.choice(
                pop.n_post, size=int(rng.integers(1, pop.n_post + 1)), replace=False))
            if rng.random() < 0.5:
                ref_stdp_on_pre(pop, w, post_trace.copy(), pre_ids)
                stdp_on_pre(pop, pre_ids, post_trace)
            else:
                ref_stdp_on_post(pop, w, pre_trace.copy(), post_ids)
                stdp_on_post(pop, post_ids, pre_trace)
            assert np.array_equal(pop.weight, w)
            assert np.array_equal(np.signbit(pop.weight), np.signbit(w))
            assert_masked(pop)
            seen |= set(np.signbit(w[w == 0.0]).tolist())
    assert seen == {False, True}, "zeros of both signs must occur"


def spike_record(rng, n, window, max_spikes, grid=None):
    """Random trains, off any grid or (with `grid`) on a coarse step grid,
    where pre and post spikes often coincide."""
    def train():
        k = rng.integers(0, max_spikes + 1)
        if grid is None:
            return np.unique(rng.uniform(0.0, window, size=k))
        return np.unique(rng.integers(0, round(window / grid), size=k)) * grid
    return SpikeRecord([train() for _ in range(n)], window)


@pytest.mark.parametrize("grid", [None, 2.5])
@pytest.mark.parametrize("rule,sign,w_min", CASES)
def test_resume_matches_kernel_sums(rule, sign, w_min, grid):
    rng = np.random.default_rng([11, RULES.index(rule), sign == "excitatory", int(w_min)])
    window = 100.0
    params = ResumeParams(A=0.01, tau=10.0, W_min=w_min, W_max=1200.0)
    for _ in range(10):
        pop = random_population(rng, rule, sign, params)
        w = pop.weight.copy()
        pre = spike_record(rng, pop.n_pre, window, 12, grid)
        teacher = spike_record(rng, pop.n_post, window, 8, grid)
        actual = spike_record(rng, pop.n_post, window, 8, grid)
        # some post neurons whose actual train equals the teacher train
        same = rng.random(pop.n_post) < 0.3
        actual = SpikeRecord([td if s else ta for td, ta, s
                              in zip(teacher.times, actual.times, same)], window)
        resume_update(pop, teacher, actual, pre, window)
        ref_resume(pop, w, teacher, actual, pre)
        assert np.max(np.abs(pop.weight - w), initial=0.0) <= 1e-12
        assert_masked(pop)


@pytest.mark.parametrize("rule", RULES)
def test_resume_identical_trains_leave_weights_exactly(rule):
    rng = np.random.default_rng([13, RULES.index(rule)])
    window = 100.0
    for sign in ("excitatory", "inhibitory"):
        params = ResumeParams(A=0.01, tau=10.0, W_min=150.0, W_max=1200.0)
        pop = random_population(rng, rule, sign, params)
        before = pop.weight.copy()
        train = spike_record(rng, pop.n_post, window, 8)
        resume_update(pop, train, train, spike_record(rng, pop.n_pre, window, 12), window)
        assert np.array_equal(pop.weight, before)
        assert_masked(pop)


# -- the weight accessor -------------------------------------------------------


def test_weight_reads_are_read_only_and_assignment_writes_through():
    pre, post = connect("one_to_all_except_partner", 4, 4)
    pop = SynapsePopulation(name="p", pre_index=pre, post_index=post,
                            weight=np.full(pre.size, -50.0), sign="inhibitory",
                            n_pre=4, n_post=4)
    with pytest.raises(ValueError):
        pop.weight[0] = -1.0
    with pytest.raises(ValueError):
        pop.weight.fill(-1.0)
    values = -np.arange(1.0, pre.size + 1.0)
    pop.weight = values
    assert np.array_equal(pop.weight, values)
    assert np.array_equal(pop.W[pre, post], values)
    assert np.all(np.diag(pop.W) == 0.0)
    pop.weight = -7.0
    assert np.all(pop.weight == -7.0)
    for bad in (np.ones(pre.size), np.full(pre.size, np.nan), -np.ones(pre.size - 1)):
        with pytest.raises(ValueError):
            pop.weight = bad
    assert np.all(pop.weight == -7.0)


def test_duplicate_connection_rejected():
    with pytest.raises(ValueError):
        SynapsePopulation(name="dup", pre_index=np.array([0, 0]),
                          post_index=np.array([1, 1]), weight=np.ones(2),
                          sign="excitatory", n_pre=1, n_post=2)


def test_connection_lookups_match_list_reference():
    rng = np.random.default_rng(3)
    for rule in RULES:
        pop = random_population(rng, rule, "excitatory", StdpParams())
        pre_ids = rng.permutation(pop.n_pre)[:int(rng.integers(0, pop.n_pre + 1))]
        post_ids = rng.permutation(pop.n_post)[:int(rng.integers(0, pop.n_post + 1))]
        assert np.array_equal(pop.connections_by_pre(pre_ids), connections_by_pre(pop, pre_ids))
        assert np.array_equal(pop.connections_by_post(post_ids),
                              connections_by_post(pop, post_ids))
