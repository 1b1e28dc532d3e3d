"""Rate coding of pixel intensities as constant injection currents.

A pixel p in [0, 1] drives its input neuron with the DC current I = p * I_K,
where I_K is calibrated once per neuron parameter set: the smallest current
(on a 0.1 pA grid) that makes a neuron started from rest emit exactly
`target` spikes during a `window` ms presentation. With the defaults
(10 spikes / 100 ms) a full-intensity pixel saturates the input rate and
p = 0 stays silent.

Calibration steps its candidate currents as the neurons of one population
through one StepKernel. Every operation of the step is elementwise, so each
neuron counts exactly the spikes a lone neuron at that current would. The
population receives no synapses, so its kernel leaves out the alpha
channels, which stay exactly zero. A neuron that fires at 0 pA (omega at or
below E_L) is refused, since p = 0 would then not stay silent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .neuron import NeuronParams, StepKernel, _window_steps, new_state

GRID = 0.1  # calibration resolution (pA)
SEARCH_ROWS = 128  # grid points stepped together in each later round
# grid points the first round spaces evenly up to 8x the rheobase, where the
# target is usually reached: a step costs about the same for 66 rows as for
# 256, and this spacing lets one later round finish the search
FIRST_ROWS = 256
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
    step = StepKernel(new_state(I.size, params), params, I, dt, synapses=False)
    ids = [step() for _ in range(n_steps)]
    return np.bincount(np.concatenate(ids), minlength=I.size)


def calibrate_ik(params: NeuronParams, window: float = 100.0, target: int = 10,
                 dt: float = 0.1) -> float:
    """Smallest I_K on the 0.1 pA grid giving exactly `target` spikes in `window`.

    Relies on the spike count rising monotonically with the current. One
    population run steps 0 pA, FIRST_ROWS grid points evenly spaced from the
    rheobase up to 8x it, and the further doublings of the rheobase, and
    brackets the smallest grid point whose count reaches `target`; each later
    run steps up to SEARCH_ROWS evenly spaced grid points inside the bracket
    and narrows it to the gap around the first one that reaches the target,
    until one grid point is left. The count there must be exactly `target`.
    Raises NumericError when the neuron fires at 0 pA, naming the count, and
    when the target is unreachable, reporting the achievable count;
    ValueError when `window` is not a positive multiple of `dt`.
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

    # bracket, in one run: 0 pA, the first rows from the rheobase's grid point
    # up to its third doubling, and the doublings beyond; the last doubling
    # only reports the saturated count
    base = max(1, int(round(params.rheobase / GRID)))
    grid = [0, *(base + 7 * base * k // FIRST_ROWS for k in range(FIRST_ROWS)),
            *(base << j for j in range(3, DOUBLINGS + 1))]
    i, counts = first_reaching(grid)
    if counts[0]:
        raise NumericError(
            f"spike count at 0 pA is {counts[0]}, not 0, in {window:g} ms "
            f"(omega={params.omega} mV, E_L={params.E_L} mV): a zero pixel "
            "would not stay silent")
    if i >= len(grid) - 1:
        raise NumericError(
            f"spike count saturates at {counts[-1]} < target {target}; "
            "target unreachable for these parameters")
    lo, hi, got = grid[i - 1], grid[i], counts[i]

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
