"""Rate coding of pixel intensities as constant injection currents.

A pixel p in [0, 1] drives its input neuron with the DC current I = p * I_K,
where I_K is calibrated once per neuron parameter set: the smallest current
(on a 0.1 pA grid) that makes a neuron started from rest emit exactly
`target` spikes during a `window` ms presentation. With the defaults
(10 spikes / 100 ms) a full-intensity pixel saturates the input rate and
p = 0 stays silent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .neuron import NeuronParams, StepKernel, new_state

GRID = 0.1  # calibration resolution (pA)


@dataclass(frozen=True)
class EncodingConfig:
    """Resolved encoding constants, including the calibrated I_K; the
    presentation window is SimulationConfig.window."""

    I_K: float              # current for a full-intensity pixel (pA)
    target: int = 10        # spike count defining the max rate

    def __post_init__(self) -> None:
        if not (self.I_K > 0.0 and np.isfinite(self.I_K)):
            raise ValueError(f"I_K must be positive and finite, got {self.I_K}")
        if self.target < 1:
            raise ValueError(f"target must be >= 1, got {self.target}")


def pixel_to_current(p: float, enc: EncodingConfig) -> float:
    """Injection current (pA) for normalized pixel intensity p in [0, 1]."""
    if not (np.isfinite(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"pixel intensity must be in [0, 1], got {p}")
    return p * enc.I_K


def encode_image(pixels: np.ndarray, enc: EncodingConfig) -> np.ndarray:
    """Per-neuron currents for an image, flattened row-major."""
    px = np.asarray(pixels, dtype=np.float64)
    if not np.all(np.isfinite(px)) or px.size == 0:
        raise ValueError("pixels must be a non-empty finite array")
    if px.min() < 0.0 or px.max() > 1.0:
        raise ValueError("pixel intensities must lie in [0, 1]")
    return px.reshape(-1) * enc.I_K


def spikes_under_constant_current(params: NeuronParams, I: float, window: float,
                                  dt: float) -> np.ndarray:
    """Spike times of one neuron driven by DC current I from rest; a
    non-finite I raises ValueError."""
    n_steps = int(round(window / dt))
    step = StepKernel(new_state(1, params), params, np.array([I], dtype=np.float64), dt)
    times = []
    for k in range(n_steps):
        if step().size:
            times.append(k * dt)
    return np.asarray(times, dtype=np.float64)


def calibrate_ik(params: NeuronParams, window: float = 100.0, target: int = 10,
                 dt: float = 0.1) -> float:
    """Smallest I_K on the 0.1 pA grid giving exactly `target` spikes in `window`.

    Bisects the (monotone) spike count over an integer grid of 0.1 pA, then
    verifies the count at the returned current. Raises NumericError when the
    target is unreachable, reporting the achievable count.
    """
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    if not window > 0.0 or not dt > 0.0:
        raise ValueError("window and dt must be positive")
    if target * params.t_ref >= window + 1e-9:
        max_by_ref = int(np.ceil(window / params.t_ref)) if params.t_ref > 0 else target
        raise NumericError(
            f"target {target} cannot fit in {window} ms with t_ref={params.t_ref} ms "
            f"(refractory cap ~{max_by_ref} spikes)")

    count = lambda n: spikes_under_constant_current(params, n * GRID, window, dt).size

    # bracket: grow hi until the count reaches the target
    hi = max(1, int(round(params.rheobase / GRID)))
    for _ in range(64):
        if count(hi) >= target:
            break
        hi *= 2
    else:
        raise NumericError(
            f"spike count saturates at {count(hi)} < target {target}; "
            "target unreachable for these parameters")
    lo = 0  # zero current is silent

    # minimal n with count(n) >= target
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
