"""Synapse populations and the two weight-update rules.

Phase 1 uses pair-based additive STDP with all-to-all spike interaction,
implemented through exponential eligibility traces, one per neuron and owned
by the caller: every pre spike depresses its synapses in proportion to the
post neurons' traces, every post spike potentiates in proportion to the pre
neurons' traces; the events change only the weights. Updates are scaled by
W_max and clipped to the allowed band after every event. A pre event reads
the traces before this step's spikes bump them and a post event after, so a
coincident pair contributes potentiation (never depression).

Phase 2 uses a supervised rule driven by a teacher spike train: at the end of
a presentation each synapse receives

    dw = W_max * [ sum over (teacher, pre) causal pairs of W(t_d - t_i)
                   - sum over (actual, pre) causal pairs of W(t_o - t_i) ]

with the learning window W(s) = A * exp(-s / tau) for s > 0 and exactly 0
otherwise. A teacher train identical to the actual output train yields exactly
zero update. Window amplitude A is positive for excitatory projections and
negative for inhibitory ones.

Weight sign discipline: excitatory weights live in [W_min, W_max], inhibitory
in [-W_max, -W_min] (parameters store magnitudes; the projection's sign picks
the direction, and "potentiation" always grows |w|).

Every projection stores its weights as one dense (n_pre, n_post) matrix, so
a pre event updates a row, a post event a column, and the supervised rule
adds one matrix product; non-connections are held at exactly 0.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .records import SpikeRecord

SIGNS = ("excitatory", "inhibitory")

# time constant (ms) of the one eligibility trace per neuron that all STDP reads
TAU_TRACE = 10.0


@dataclass(frozen=True)
class StdpParams:
    """Additive pair-STDP constants. W_max / W_min are magnitudes (pA)."""

    A_plus: float = 0.001       # potentiation rate per causal pair
    A_minus: float = 0.0005     # depression rate per anti-causal pair
    W_max: float = 1200.0
    W_min: float = 0.0

    def __post_init__(self) -> None:
        if self.A_plus < 0.0 or self.A_minus < 0.0:
            raise ValueError("STDP rates must be non-negative")
        if not (0.0 <= self.W_min <= self.W_max):
            raise ValueError("need 0 <= W_min <= W_max")


@dataclass(frozen=True)
class ResumeParams:
    """Supervised-window constants. A carries the projection's sign."""

    A: float = 0.001            # window amplitude (>0 excitatory, <0 inhibitory)
    tau: float = 10.0           # window time constant (ms)
    W_max: float = 1200.0       # magnitude bound (pA)
    W_min: float = 0.0

    def __post_init__(self) -> None:
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if not (0.0 <= self.W_min <= self.W_max):
            raise ValueError("need 0 <= W_min <= W_max")


def excitatory_stdp() -> StdpParams:
    """Default excitatory STDP parameter set."""
    return StdpParams(A_plus=0.001, A_minus=0.0005, W_max=1200.0)


def inhibitory_stdp() -> StdpParams:
    """Default inhibitory STDP parameter set (magnitudes; sign via projection)."""
    return StdpParams(A_plus=0.001, A_minus=0.0005, W_max=1200.0)


def excitatory_resume() -> ResumeParams:
    return ResumeParams(A=0.001, tau=10.0, W_max=1200.0)


def inhibitory_resume() -> ResumeParams:
    return ResumeParams(A=-0.001, tau=10.0, W_max=1200.0)


class SynapsePopulation:
    """One projection: a dense weight matrix plus plasticity state.

    `W` is the (n_pre, n_post) matrix of signed weights (pA), exactly 0 where
    the projection has no connection. pre_index / post_index list the
    connections (population-local ids, each pair at most once) and fix their
    order; `weight` reads the per-connection weights in that order as a
    read-only array, and assigning `pop.weight = values` (an array in that
    order, or one scalar for all) validates and writes them into `W`. This
    per-connection order is the checkpoint layout.

    `plasticity` is None for a static projection, StdpParams or ResumeParams
    otherwise.
    """

    def __init__(self, name: str, pre_index, post_index, weight, sign: str,
                 n_pre: int, n_post: int,
                 plasticity: StdpParams | ResumeParams | None = None) -> None:
        if sign not in SIGNS:
            raise ValueError(f"unknown synapse sign {sign!r}")
        self.name = name
        self.sign = sign
        self.n_pre = int(n_pre)
        self.n_post = int(n_post)
        self.plasticity = plasticity
        self.pre_index = np.array(pre_index, dtype=np.int64)
        self.post_index = np.array(post_index, dtype=np.int64)
        for index in (self.pre_index, self.post_index):  # shared by copies
            index.flags.writeable = False
        if not (self.pre_index.ndim == 1
                and self.pre_index.shape == self.post_index.shape == np.shape(weight)):
            raise ValueError("connection arrays must have identical 1-D shapes")
        if self.pre_index.size:
            if self.pre_index.min() < 0 or self.pre_index.max() >= self.n_pre:
                raise ValueError("pre_index out of range")
            if self.post_index.min() < 0 or self.post_index.max() >= self.n_post:
                raise ValueError("post_index out of range")
        connected = np.zeros((self.n_pre, self.n_post), dtype=bool)
        connected[self.pre_index, self.post_index] = True
        if np.count_nonzero(connected) != self.pre_index.size:
            raise ValueError(f"{name}: duplicate connection")
        # non-connections, re-zeroed after every update; None when all-to-all
        self._off = None if connected.all() else ~connected
        self.W = np.zeros((self.n_pre, self.n_post), dtype=np.float64)
        self.weight = weight

    def __repr__(self) -> str:
        return (f"SynapsePopulation(name={self.name!r}, sign={self.sign!r}, "
                f"n_pre={self.n_pre}, n_post={self.n_post}, "
                f"n_connections={self.n_connections}, mode={self.mode!r})")

    # -- weights --------------------------------------------------------

    @property
    def weight(self) -> np.ndarray:
        """Per-connection weights in connection order (a read-only copy)."""
        w = self.W[self.pre_index, self.post_index]
        w.flags.writeable = False
        return w

    @weight.setter
    def weight(self, values) -> None:
        w = np.asarray(values, dtype=np.float64)
        if w.ndim and w.shape != self.pre_index.shape:
            raise ValueError(f"{self.name}: expected {self.pre_index.size} weights, "
                             f"got shape {w.shape}")
        self._check_weights(w)
        self.W[self.pre_index, self.post_index] = w

    @property
    def n_connections(self) -> int:
        return int(self.pre_index.size)

    @property
    def mode(self) -> str:
        if self.plasticity is None:
            return "static"
        return "stdp" if isinstance(self.plasticity, StdpParams) else "resume"

    def _check_weights(self, w: np.ndarray) -> None:
        if not np.all(np.isfinite(w)):
            raise ValueError(f"{self.name}: non-finite weight")
        if self.sign == "excitatory":
            if w.size and w.min() < 0.0:
                raise ValueError(f"{self.name}: negative excitatory weight")
        elif w.size and w.max() > 0.0:
            raise ValueError(f"{self.name}: positive inhibitory weight")

    def _bounds(self) -> tuple[float, float]:
        p = self.plasticity
        w_max = p.W_max if p is not None else np.inf
        w_min = p.W_min if p is not None else 0.0
        if self.sign == "excitatory":
            return (w_min, w_max)
        return (-w_max, -w_min)

    def _settle(self, block: np.ndarray, off: np.ndarray | None) -> None:
        """Clip an updated block of W to the band, then re-zero its
        non-connections (clipping may have moved them off 0)."""
        lo, hi = self._bounds()
        np.clip(block, lo, hi, out=block)
        if off is not None:
            np.copyto(block, 0.0, where=off)

    def _add_to_rows(self, ids: np.ndarray, delta: np.ndarray) -> None:
        """W[i, :] += delta for each (distinct) pre id i, then clip and mask."""
        block = self.W[ids]
        block += delta
        self._settle(block, None if self._off is None else self._off[ids])
        self.W[ids] = block

    def _add_to_cols(self, ids: np.ndarray, delta: np.ndarray) -> None:
        """W[:, j] += delta for each (distinct) post id j, then clip and mask.
        When every post neuron fired (a feature volley) the update runs in
        place: gathering and scattering all columns costs more than the
        update itself."""
        if ids.size == self.n_post:
            self.W += delta[:, None]
            self._settle(self.W, self._off)
            return
        block = self.W[:, ids]
        block += delta[:, None]
        self._settle(block, None if self._off is None else self._off[:, ids])
        self.W[:, ids] = block

    def summed_input(self, pre_ids: np.ndarray) -> np.ndarray:
        """Total weight onto each post neuron from the given spiking pre
        neurons: their rows of W summed one after another in the order given
        (ascending ids in the engine), the same sums as adding the weights
        connection by connection."""
        rows = self.W[pre_ids]
        if self.n_post > 1 or rows.shape[0] < 2:
            return rows.sum(axis=0)
        # numpy sums a lone column pairwise; accumulate keeps the order
        return np.add.accumulate(rows, axis=0)[-1]

    # -- per-connection views (not used by the engine) ---------------------

    def connections_by_pre(self, pre_ids: np.ndarray) -> np.ndarray:
        """Indices into the connection arrays for the given pre neurons,
        grouped by id in the order given, connection order within a group."""
        return _grouped(self.pre_index, self.n_pre, pre_ids)

    def connections_by_post(self, post_ids: np.ndarray) -> np.ndarray:
        """Indices into the connection arrays for the given post neurons."""
        return _grouped(self.post_index, self.n_post, post_ids)

    def copy(self) -> "SynapsePopulation":
        """An independent projection: its own W, shared connection arrays."""
        new = copy.copy(self)
        new.W = self.W.copy()
        return new


def _grouped(index: np.ndarray, n: int, ids) -> np.ndarray:
    """Positions in `index` equal to each of `ids`, concatenated per id."""
    ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
    order = np.argsort(index, kind="stable")
    starts = np.searchsorted(index[order], np.arange(n + 1))
    lo, lens = starts[ids], starts[ids + 1] - starts[ids]
    out_start = np.cumsum(lens) - lens      # where each id's group begins in the output
    return order[np.arange(lens.sum()) + np.repeat(lo - out_start, lens)]


# -- STDP -----------------------------------------------------------------


def _require_stdp(pop: SynapsePopulation) -> StdpParams:
    if pop.mode != "stdp":
        raise ValueError(f"{pop.name}: operation requires stdp mode, pop is {pop.mode}")
    return pop.plasticity  # type: ignore[return-value]


def decay_traces(trace: np.ndarray, dt: float) -> np.ndarray:
    """Advance eligibility traces by dt ms: trace *= exp(-dt / TAU_TRACE)."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    trace *= math.exp(-dt / TAU_TRACE)
    return trace


def _check_trace(pop: SynapsePopulation, trace: np.ndarray, n: int) -> None:
    if np.shape(trace) != (n,):
        raise ValueError(f"{pop.name}: expected a trace of {n} neurons, "
                         f"got shape {np.shape(trace)}")


def stdp_on_pre(pop: SynapsePopulation, pre_neuron,
                trace: np.ndarray) -> SynapsePopulation:
    """Apply the pre-spike event: depress each spiking pre neuron's row of W
    by `trace`, the post neurons' traces.

    `pre_neuron` may be an int or an array of distinct ids spiking this step.
    The traces must already be decayed to the current step and not yet
    bumped by this step's spikes.
    """
    p = _require_stdp(pop)
    ids = np.atleast_1d(np.asarray(pre_neuron, dtype=np.int64))
    if ids.size and (ids.min() < 0 or ids.max() >= pop.n_pre):
        raise IndexError(f"{pop.name}: pre id out of range")
    _check_trace(pop, trace, pop.n_post)
    if ids.size:
        step = p.A_minus * p.W_max * trace
        # depression shrinks |w|
        pop._add_to_rows(ids, -step if pop.sign == "excitatory" else step)
    return pop


def stdp_on_post(pop: SynapsePopulation, post_neuron,
                 trace: np.ndarray) -> SynapsePopulation:
    """Apply the post-spike event: potentiate each spiking post neuron's
    column of W by `trace`, the pre neurons' traces, which must already
    include this step's pre spikes (so coincident pairs potentiate)."""
    p = _require_stdp(pop)
    ids = np.atleast_1d(np.asarray(post_neuron, dtype=np.int64))
    if ids.size and (ids.min() < 0 or ids.max() >= pop.n_post):
        raise IndexError(f"{pop.name}: post id out of range")
    _check_trace(pop, trace, pop.n_pre)
    if ids.size:
        step = p.A_plus * p.W_max * trace
        # potentiation grows |w|
        pop._add_to_cols(ids, step if pop.sign == "excitatory" else -step)
    return pop


# -- supervised window rule ------------------------------------------------


def resume_window(s, params: ResumeParams) -> np.ndarray | float:
    """Learning window W(s) = A * exp(-s / tau) for s > 0, exactly 0 otherwise."""
    s_arr = np.asarray(s, dtype=np.float64)
    out = np.where(s_arr > 0.0, params.A * np.exp(-s_arr / params.tau), 0.0)
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def _flat_spikes(rec: SpikeRecord, window: float) -> tuple[np.ndarray, np.ndarray]:
    """All spikes of a record as (times, neuron ids), grouped by neuron;
    checks that they lie inside [0, window) (the record itself guarantees
    sorted trains, but not this window)."""
    sizes = np.fromiter((t.size for t in rec.times), dtype=np.int64, count=rec.n_neurons)
    times = np.concatenate(rec.times) if sizes.sum() else np.empty(0)
    ids = np.repeat(np.arange(rec.n_neurons), sizes)
    if times.size and (times.min() < 0.0 or times.max() >= window):
        raise ValueError(f"spike time outside [0, {window})")
    return times, ids


def _event_counts(times: np.ndarray, ids: np.ndarray, T: np.ndarray, n: int) -> np.ndarray:
    """(len(T), n) spike counts: row k counts the spikes at time T[k]."""
    flat = np.searchsorted(T, times) * n + ids
    return np.bincount(flat, minlength=T.size * n).reshape(T.size, n)


def _causal_traces(times: np.ndarray, ids: np.ndarray, n: int, T: np.ndarray,
                   tau: float) -> np.ndarray:
    """Tr[k, i] = sum of exp(-(T[k] - t) / tau) over the spikes t < T[k] of
    neuron i, for sorted distinct T: strictly causal exponential traces."""
    K = T.size
    k = np.searchsorted(T, times, side="right")     # first event after each spike
    live = k < K
    tr = np.zeros((K, n), dtype=np.float64)
    np.add.at(tr.reshape(-1), k[live] * n + ids[live],
              np.exp(-(T[k[live]] - times[live]) / tau))
    decay = np.exp(-np.diff(T) / tau)
    for j in range(1, K):
        tr[j] += decay[j - 1] * tr[j - 1]
    return tr


def resume_update(pop: SynapsePopulation, teacher_spikes: SpikeRecord,
                  actual_spikes: SpikeRecord, pre_spikes: SpikeRecord,
                  window: float) -> SynapsePopulation:
    """Batch weight update for one presentation window.

    teacher_spikes / actual_spikes index the post population, pre_spikes the
    pre population. With T the distinct post spike times (teacher or actual),
    Tr[k, i] the causal trace of pre neuron i at T[k] and Y[k, j] the teacher
    minus the actual spikes of post neuron j at T[k], the kernel sums of all
    causal pairs are S = A * Tr^T Y, exact for times off the dt grid.
    Identical teacher and actual trains give a zero column of Y and cancel
    exactly.
    """
    if pop.mode != "resume":
        raise ValueError(f"{pop.name}: operation requires resume mode, pop is {pop.mode}")
    p: ResumeParams = pop.plasticity  # type: ignore[assignment]
    if teacher_spikes.n_neurons != pop.n_post or actual_spikes.n_neurons != pop.n_post:
        raise ValueError(f"{pop.name}: post spike records must cover {pop.n_post} neurons")
    if pre_spikes.n_neurons != pop.n_pre:
        raise ValueError(f"{pop.name}: pre spike record must cover {pop.n_pre} neurons")
    t_teach, j_teach = _flat_spikes(teacher_spikes, window)
    t_act, j_act = _flat_spikes(actual_spikes, window)
    t_pre, i_pre = _flat_spikes(pre_spikes, window)

    T = np.unique(np.concatenate([t_teach, t_act]))
    Y = (_event_counts(t_teach, j_teach, T, pop.n_post)
         - _event_counts(t_act, j_act, T, pop.n_post)).astype(np.float64)
    Tr = _causal_traces(t_pre, i_pre, pop.n_pre, T, p.tau)
    pop.W += p.W_max * p.A * (Tr.T @ Y)
    pop._settle(pop.W, pop._off)
    return pop


def freeze(pop: SynapsePopulation) -> SynapsePopulation:
    """Make the projection static, preserving weights bit-exactly. Idempotent."""
    pop.plasticity = None
    return pop
