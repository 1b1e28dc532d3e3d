"""Rate encoding and current calibration: frozen constants, endpoint counts,
monotonicity, the regular-spacing tail, and the population search against a
bisection over single-neuron runs."""

import numpy as np
import pytest

from spikesim import NeuronParams
from spikesim.encoding import (GRID, _spike_counts, calibrate_ik, encode_image,
                               spikes_under_constant_current)
from spikesim.errors import NumericError

from conftest import I_K_DEFAULT


def test_calibration_frozen_value(params):
    assert calibrate_ik(params, target=10, window=100.0, dt=0.1) == I_K_DEFAULT


def test_calibration_deterministic(params):
    a = calibrate_ik(params, target=10, window=100.0, dt=0.1)
    b = calibrate_ik(params, target=10, window=100.0, dt=0.1)
    assert a == b


def test_endpoints(params):
    assert len(spikes_under_constant_current(params, I_K_DEFAULT, 100.0, 0.1)) == 10
    assert len(spikes_under_constant_current(params, 0.0, 100.0, 0.1)) == 0


@pytest.mark.parametrize("current", [np.nan, np.inf, -np.inf])
def test_non_finite_current_rejected(params, current):
    # unchecked, a NaN current would give 0 spikes and an inf one 50
    with pytest.raises(ValueError, match="non-finite external current"):
        spikes_under_constant_current(params, current, 100.0, 0.1)


def test_monotone_grid(params):
    counts = [len(spikes_under_constant_current(params, p * I_K_DEFAULT, 100.0, 0.1))
              for p in np.arange(0.0, 1.01, 0.1)]
    assert counts[0] == 0 and counts[-1] == 10
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_grid_counts_frozen(params):
    # intensity -> count samples, frozen from the reference calibration
    for p, expected in [(0.0, 0), (0.2, 0), (0.5, 3), (0.8, 7), (1.0, 10)]:
        n = len(spikes_under_constant_current(params, p * I_K_DEFAULT, 100.0, 0.1))
        assert n == expected, f"p={p}"


def test_steady_tail_regular_spacing(params):
    # the adaptive threshold needs a few ISIs to settle; after that the
    # spacing under constant I_K is uniform to one step
    times = np.array(spikes_under_constant_current(params, I_K_DEFAULT, 100.0, 0.1))
    isis = np.diff(times)
    tail = isis[3:]
    assert tail.size >= 4
    assert np.ptp(tail) <= 0.1 + 1e-12


def test_encode_image_row_major(enc):
    img = np.array([[0.0, 0.25], [0.5, 1.0]])
    drive = encode_image(img, enc)
    assert np.allclose(drive, np.array([0.0, 0.25, 0.5, 1.0]) * I_K_DEFAULT)
    # the endpoints are exact: a dark pixel injects nothing, a full one I_K
    assert drive[0] == 0.0 and drive[-1] == I_K_DEFAULT


def test_encode_image_rejects_out_of_range(enc):
    with pytest.raises(ValueError):
        encode_image(np.array([[1.5]]), enc)
    with pytest.raises(ValueError):
        encode_image(np.array([[-0.1]]), enc)


def test_calibration_refractory_cap(params):
    # 100 ms window with 2 ms refractory cannot hold 60 spikes
    with pytest.raises(NumericError):
        calibrate_ik(params, target=60, window=100.0, dt=0.1)


def test_calibration_other_targets(params):
    # any achievable target must yield exactly that count at the returned I_K
    for target in (1, 5, 15):
        ik = calibrate_ik(params, target=target, window=100.0, dt=0.1)
        n = len(spikes_under_constant_current(params, ik, 100.0, 0.1))
        assert n == target


@pytest.mark.parametrize("window, dt", [(100.0, 0.3), (100.05, 0.1), (np.inf, 0.1),
                                        (np.nan, 0.1), (0.0, 0.1), (100.0, 0.0),
                                        (100.0, np.inf)])
def test_calibration_refuses_window_not_multiple_of_dt(params, window, dt):
    # unchecked, dt=0.3 calibrated over 333 steps (99.9 ms) and inf overflowed
    with pytest.raises(ValueError):
        calibrate_ik(params, window=window, dt=dt)


@pytest.mark.parametrize("window, dt", [(100.0, 0.3), (np.inf, 0.1), (-1.0, 0.1)])
def test_spike_times_refuse_window_not_multiple_of_dt(params, window, dt):
    with pytest.raises(ValueError):
        spikes_under_constant_current(params, I_K_DEFAULT, window, dt)


def bisect_ik(params, window, target, dt):
    """The calibration as a bisection over single-neuron runs, one run per
    probed grid point: the reference that the population search must match."""
    if target * params.t_ref >= window + 1e-9:
        max_by_ref = int(np.ceil(window / params.t_ref)) if params.t_ref > 0 else target
        raise NumericError(
            f"target {target} cannot fit in {window} ms with t_ref={params.t_ref} ms "
            f"(refractory cap ~{max_by_ref} spikes)")

    count = lambda n: spikes_under_constant_current(params, n * GRID, window, dt).size

    if count(0):
        raise NumericError(
            f"spike count at 0 pA is {count(0)}, not 0, in {window:g} ms "
            f"(omega={params.omega} mV, E_L={params.E_L} mV): a zero pixel "
            "would not stay silent")
    hi = max(1, int(round(params.rheobase / GRID)))
    for _ in range(64):
        if count(hi) >= target:
            break
        hi *= 2
    else:
        raise NumericError(
            f"spike count saturates at {count(hi)} < target {target}; "
            "target unreachable for these parameters")
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if count(mid) >= target:
            hi = mid
        else:
            lo = mid

    got = count(hi)
    if got != target:
        raise NumericError(
            f"no current yields exactly {target} spikes: count jumps to {got} "
            f"at {hi * GRID:.1f} pA")
    return round(hi * GRID, 1)


def _outcome(calibrate, params, target, dt):
    """The calibrated current, or the NumericError's message."""
    try:
        return calibrate(params, 100.0, target, dt)
    except NumericError as e:
        return str(e)


def _sweep_cases(n, seed=17):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        params = NeuronParams(tau_m=rng.uniform(2.0, 20.0), t_ref=rng.uniform(0.0, 6.0),
                              alpha1=rng.uniform(0.0, 60.0), omega=rng.uniform(-66.0, -40.0))
        yield params, int(rng.integers(1, 21)), float(rng.choice([0.1, 0.2]))


@pytest.mark.parametrize("params, target, dt", [
    *_sweep_cases(8),
    (NeuronParams(t_ref=6.0), 17, 0.1),                     # refractory cap
    (NeuronParams(t_ref=2.05), 47, 0.2),                    # count saturates at 46
    (NeuronParams(t_ref=0.0, alpha1=0.0, alpha2=0.0), 3, 0.2),  # count jumps 0 -> 294
    (NeuronParams(), 1, 0.1),                               # just above the rheobase
    (NeuronParams(omega=-69.99), 1, 0.2),                   # rheobase 0.2 pA
    (NeuronParams(omega=-66.0, alpha1=60.0, t_ref=0.5), 20, 0.1),  # 23x the rheobase
    (NeuronParams(omega=-70.0), 10, 0.1),                   # 1 spike at 0 pA
    (NeuronParams(omega=-75.0), 10, 0.2),                   # 5 spikes at 0 pA
])
def test_population_search_matches_bisection(params, target, dt):
    assert _outcome(calibrate_ik, params, target, dt) == _outcome(bisect_ik, params, target, dt)


@pytest.mark.parametrize("omega, count", [(-70.0, 1), (-75.0, 5)])
def test_calibration_refuses_a_neuron_that_fires_at_rest(omega, count):
    # unchecked, these calibrated to 397.6 and 295.6 pA, and every zero pixel
    # of an image fired
    params = NeuronParams(omega=omega)
    assert spikes_under_constant_current(params, 0.0, 100.0, 0.1).size == count
    with pytest.raises(NumericError, match=rf"at 0 pA is {count}, not 0.*omega={omega} mV, "
                                           r"E_L=-70.0 mV"):
        calibrate_ik(params)


@pytest.mark.parametrize("dt", [0.1, 0.2])
def test_population_counts_match_single_neuron_runs(params, dt):
    currents = np.linspace(0.0, 3.0 * I_K_DEFAULT, 13)
    counts = _spike_counts(params, currents, 100.0, dt)
    assert counts.tolist() == [len(spikes_under_constant_current(params, I, 100.0, dt))
                               for I in currents]
