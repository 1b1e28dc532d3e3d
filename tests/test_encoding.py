"""Rate encoding and current calibration: frozen constants, endpoint counts,
monotonicity, and the regular-spacing tail."""

import numpy as np
import pytest

from spikesim import EncodingConfig, NeuronParams
from spikesim.encoding import (calibrate_ik, encode_image, pixel_to_current,
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


def test_pixel_to_current_linear():
    enc = EncodingConfig(I_K=I_K_DEFAULT, target=10)
    assert pixel_to_current(0.0, enc) == 0.0
    assert pixel_to_current(1.0, enc) == I_K_DEFAULT
    assert pixel_to_current(0.5, enc) == pytest.approx(0.5 * I_K_DEFAULT)


def test_encode_image_row_major(enc):
    img = np.array([[0.0, 0.25], [0.5, 1.0]])
    drive = encode_image(img, enc)
    assert np.allclose(drive, np.array([0.0, 0.25, 0.5, 1.0]) * I_K_DEFAULT)


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
