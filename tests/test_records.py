"""SpikeRecord construction, validation, and slicing."""

import numpy as np
import pytest

from spikesim import SpikeRecord


def test_from_step_events_times_on_grid():
    events = [(3, np.array([0, 2])), (7, np.array([2]))]
    rec = SpikeRecord.from_step_events(events, 4, dt=0.1, window=10.0)
    assert np.allclose(rec.times[0], [0.3])
    assert np.allclose(rec.times[2], [0.3, 0.7])
    assert rec.times[1].size == 0 and rec.times[3].size == 0
    assert rec.counts().tolist() == [1, 0, 2, 0]
    assert rec.total() == 3


def test_empty_record():
    rec = SpikeRecord.empty(5, 100.0)
    assert rec.total() == 0
    assert rec.counts().tolist() == [0] * 5


def test_validation_rejects_bad_trains():
    with pytest.raises(ValueError):
        SpikeRecord([np.array([5.0, 4.0])], 10.0)          # not increasing
    with pytest.raises(ValueError):
        SpikeRecord([np.array([11.0])], 10.0)              # out of window
    with pytest.raises(ValueError):
        SpikeRecord([np.array([-0.1])], 10.0)              # negative time
    with pytest.raises(ValueError):
        SpikeRecord([np.array([np.nan])], 10.0)            # non-finite
    with pytest.raises(ValueError):
        SpikeRecord([np.array([[1.0]])], 10.0)             # not 1-D


def test_subset_slices_by_neuron_range():
    rec = SpikeRecord([np.array([1.0]), np.array([2.0, 3.0]), np.empty(0)], 10.0)
    sub = rec.subset(1, 3)
    assert sub.counts().tolist() == [2, 0]
    assert np.allclose(sub.times[0], [2.0, 3.0])


def test_equality():
    a = SpikeRecord([np.array([1.0, 2.0])], 10.0)
    b = SpikeRecord([np.array([1.0, 2.0])], 10.0)
    c = SpikeRecord([np.array([1.0, 2.5])], 10.0)
    assert a == b and a != c


def from_step_events_loop(events, n_neurons, dt, window):
    """Per-spike reference: append each spike to its neuron's list."""
    per_neuron = [[] for _ in range(n_neurons)]
    for step, ids in events:
        for i in ids:
            per_neuron[int(i)].append(step * dt)
    return SpikeRecord([np.asarray(ts, dtype=np.float64) for ts in per_neuron], window)


def test_from_step_events_matches_per_spike_loop():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n, n_steps, dt = int(rng.integers(1, 40)), int(rng.integers(1, 300)), 0.1
        silent = rng.random(n) < 0.3
        events = []
        for k in np.flatnonzero(rng.random(n_steps) < 0.4):
            ids = np.flatnonzero((rng.random(n) < 0.3) & ~silent)
            if ids.size:
                events.append((int(k), ids))
        rec = SpikeRecord.from_step_events(events, n, dt, n_steps * dt)
        ref = from_step_events_loop(events, n, dt, n_steps * dt)
        assert rec == ref
        assert all(np.array_equal(a, b) for a, b in zip(rec.times, ref.times))
        assert all(t.size == 0 for t, s in zip(rec.times, silent) if s)


def test_from_step_events_validates():
    with pytest.raises(ValueError):    # a neuron listed twice in one step
        SpikeRecord.from_step_events([(1, np.array([0, 0]))], 2, 0.1, 1.0)
    with pytest.raises(ValueError):    # a spike outside the window
        SpikeRecord.from_step_events([(20, np.array([1]))], 2, 0.1, 1.0)
    with pytest.raises(IndexError):
        SpikeRecord.from_step_events([(1, np.array([2]))], 2, 0.1, 1.0)
    assert SpikeRecord.from_step_events([], 3, 0.1, 1.0) == SpikeRecord.empty(3, 1.0)


def test_from_step_events_takes_step_ordered_lists_back_to_back():
    # a replayed presentation passes the lower stage's events, then the
    # readout's: the steps restart, but each neuron's still increase
    lower = [(2, np.array([0])), (5, np.array([0, 1]))]
    readout = [(1, np.array([2, 3])), (4, np.array([3]))]
    rec = SpikeRecord.from_step_events(lower + readout, 4, dt=0.5, window=10.0)
    assert [t.tolist() for t in rec.times] == [[1.0, 2.5], [2.5], [0.5], [0.5, 2.0]]


def test_from_step_events_refuses_a_neuron_whose_steps_go_back():
    events = [(5, np.array([0, 1])), (2, np.array([1]))]
    with pytest.raises(ValueError, match="neuron 1: spike times not strictly increasing"):
        SpikeRecord.from_step_events(events, 2, dt=0.1, window=1.0)


def test_validation_names_the_first_bad_neuron():
    ok = np.array([1.0, 2.0])
    cases = [([ok, np.array([np.inf]), np.array([3.0, 1.0])], "neuron 1: non-finite"),
             ([ok, ok, np.array([2.0, 12.0])], "neuron 2: spike time outside"),
             ([np.empty(0), np.array([2.0, 2.0]), np.array([-1.0])],
              "neuron 1: spike times not strictly increasing"),
             ([ok, np.array([np.nan, 1.0]), np.empty(0)], "neuron 1: non-finite")]
    for times, message in cases:
        with pytest.raises(ValueError, match=message):
            SpikeRecord(times, 10.0)
