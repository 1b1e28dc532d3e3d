"""Rate coding of pixel intensities as constant injection currents.

A pixel p in [0, 1] drives its input neuron with the DC current I = p * I_K,
where I_K is calibrated once per neuron parameter set: the smallest current
(on a 0.1 pA grid) that makes a neuron started from rest emit exactly
`target` spikes during a `window` ms presentation. With the defaults
(10 spikes / 100 ms) a full-intensity pixel saturates the input rate and
p = 0 stays silent.

Calibration steps its candidate currents as the rows of one population
through one StepKernel. Every operation of the step is elementwise, so each
row counts exactly the spikes a lone neuron at that current would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .neuron import NeuronParams, StepKernel, _window_steps, new_state

GRID = 0.1  # calibration resolution (pA)
SEARCH_ROWS = 128  # grid points stepped together in each round of the search
DOUBLINGS = 64  # doublings of the rheobase tried before a target is unreachable


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
    non-finite I, or a window that is not a positive multiple of dt, raises
    ValueError."""
    n_steps = _window_steps(window, dt)
    step = StepKernel(new_state(1, params), params, np.array([I], dtype=np.float64), dt)
    times = []
    for k in range(n_steps):
        if step().size:
            times.append(k * dt)
    return np.asarray(times, dtype=np.float64)


def _spike_counts(params: NeuronParams, currents, window: float, dt: float) -> np.ndarray:
    """Spike count of each neuron of a population started from rest, each
    driven by its own DC current, over `window` ms."""
    n_steps = _window_steps(window, dt)
    I = np.asarray(currents, dtype=np.float64)
    step = StepKernel(new_state(I.size, params), params, I, dt)
    counts = np.zeros(I.size, dtype=np.int64)
    for _ in range(n_steps):
        step()
        counts += step.spiked
    return counts


def calibrate_ik(params: NeuronParams, window: float = 100.0, target: int = 10,
                 dt: float = 0.1) -> float:
    """Smallest I_K on the 0.1 pA grid giving exactly `target` spikes in `window`.

    Relies on the spike count rising monotonically with the current. One
    population run steps the rheobase and its doublings and brackets the
    smallest grid point whose count reaches `target`; each later run steps up to
    SEARCH_ROWS evenly spaced grid points inside the bracket and narrows it
    to the gap around the first one that reaches the target, until one grid
    point is left. The count there must be exactly `target`. Raises
    NumericError when the target is unreachable, reporting the achievable
    count, and ValueError when `window` is not a positive multiple of `dt`.
    """
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    _window_steps(window, dt)
    if target * params.t_ref >= window + 1e-9:
        max_by_ref = int(np.ceil(window / params.t_ref)) if params.t_ref > 0 else target
        raise NumericError(
            f"target {target} cannot fit in {window} ms with t_ref={params.t_ref} ms "
            f"(refractory cap ~{max_by_ref} spikes)")

    def first_reaching(grid: list[int]) -> tuple[int, np.ndarray]:
        """Spike counts at the grid points, and the index of the first one
        whose count reaches the target (len(grid) if none does)."""
        counts = _spike_counts(params, [n * GRID for n in grid], window, dt)
        reached = counts >= target
        return (int(reached.argmax()) if reached.any() else len(grid)), counts

    # bracket: the rheobase's grid point and its doublings, in one run; the
    # last doubling only reports the saturated count
    doublings = [max(1, int(round(params.rheobase / GRID))) << j for j in range(DOUBLINGS + 1)]
    i, counts = first_reaching(doublings)
    if i >= DOUBLINGS:
        raise NumericError(
            f"spike count saturates at {counts[-1]} < target {target}; "
            "target unreachable for these parameters")
    lo = doublings[i - 1] if i else 0  # zero current is silent
    hi, got = doublings[i], counts[i]

    # minimal n with count(n) >= target: count(lo) < target <= count(hi)
    while hi - lo > 1:
        width = hi - lo
        if width - 1 <= SEARCH_ROWS:
            grid = list(range(lo + 1, hi))
        else:
            grid = [lo + width * k // (SEARCH_ROWS + 1) for k in range(1, SEARCH_ROWS + 1)]
        i, counts = first_reaching(grid)
        if i < len(grid):
            hi, got = grid[i], counts[i]
        if i:
            lo = grid[i - 1]

    if got != target:
        raise NumericError(
            f"no current yields exactly {target} spikes: count jumps to {got} "
            f"at {hi * GRID:.1f} pA")
    return round(hi * GRID, 1)
