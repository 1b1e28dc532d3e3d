"""Per-neuron spike time records for one presentation window."""

from __future__ import annotations

import numpy as np


class SpikeRecord:
    """Sorted spike times (ms) for each neuron of a population.

    Times are strictly increasing per neuron and live in [0, window). The
    constructor validates, so a SpikeRecord in hand is always well formed.
    """

    __slots__ = ("window", "times")

    def __init__(self, times: list[np.ndarray], window: float):
        if not window > 0.0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)
        self.times = [np.asarray(t, dtype=np.float64) for t in times]
        for i, t in enumerate(self.times):
            if t.ndim != 1:
                raise ValueError(f"neuron {i}: spike times must be 1-D")
        sizes = np.fromiter(map(len, self.times), dtype=np.int64, count=len(self.times))
        if not sizes.any():
            return
        # the checks run on all trains at once: bad[c, i] flags check c on neuron i
        flat = np.concatenate(self.times)
        owner = np.repeat(np.arange(sizes.size), sizes)
        last = np.cumsum(sizes) - 1
        spiking = sizes > 0
        bad = np.zeros((3, sizes.size), dtype=bool)
        bad[0, owner[~np.isfinite(flat)]] = True
        bad[1, spiking] = ((flat[last[spiking] - sizes[spiking] + 1] < 0.0)
                           | (flat[last[spiking]] >= self.window))
        later = owner[1:] == owner[:-1]
        bad[2, owner[1:][later & ~(np.diff(flat) > 0.0)]] = True
        if bad.any():
            i = int(np.flatnonzero(bad.any(axis=0))[0])
            raise ValueError(f"neuron {i}: " + (
                "non-finite spike time",
                f"spike time outside [0, {window})",
                "spike times not strictly increasing")[int(np.argmax(bad[:, i]))])

    @classmethod
    def empty(cls, n_neurons: int, window: float) -> "SpikeRecord":
        return cls([np.empty(0)] * n_neurons, window)

    @classmethod
    def from_step_events(cls, events: list[tuple[int, np.ndarray]], n_neurons: int,
                         dt: float, window: float) -> "SpikeRecord":
        """Assemble a record from per-step spike events.

        `events` holds (step_index, spiking_neuron_ids) pairs; spike times
        are step_index * dt. Each neuron's steps must increase along
        `events`, as they do when the pairs come in step order, or when
        step-ordered lists over disjoint neurons come back to back (a
        replay's lower-stage events, then its readout's). A neuron whose
        steps do not is refused as not strictly increasing.
        """
        id_arrays = [np.asarray(ids, dtype=np.int64).ravel() for _, ids in events]
        ids = np.concatenate(id_arrays) if id_arrays else np.empty(0, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= n_neurons):
            raise IndexError(f"spiking neuron id outside [0, {n_neurons})")
        steps = np.repeat(np.array([step for step, _ in events], dtype=np.int64),
                          [a.size for a in id_arrays])
        # a stable sort by neuron keeps each neuron's spikes in step order
        order = np.argsort(ids, kind="stable")
        times = steps[order] * dt
        ends = np.cumsum(np.bincount(ids, minlength=n_neurons)).tolist()
        return cls([times[a:b] for a, b in zip([0] + ends, ends)], window)

    @property
    def n_neurons(self) -> int:
        return len(self.times)

    def counts(self) -> np.ndarray:
        """Spike count per neuron."""
        return np.array([t.size for t in self.times], dtype=np.int64)

    def total(self) -> int:
        return int(self.counts().sum())

    def subset(self, start: int, stop: int) -> "SpikeRecord":
        """Record restricted to neurons [start, stop), reindexed from 0."""
        if not (0 <= start <= stop <= self.n_neurons):
            raise IndexError(f"bad subset [{start}, {stop}) of {self.n_neurons}")
        return SpikeRecord(self.times[start:stop], self.window)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpikeRecord):
            return NotImplemented
        return (self.window == other.window
                and self.n_neurons == other.n_neurons
                and all(np.array_equal(a, b) for a, b in zip(self.times, other.times)))

    def __repr__(self) -> str:
        return f"SpikeRecord(n_neurons={self.n_neurons}, window={self.window}, total={self.total()})"
