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
otherwise; dw is a change of |w|. A teacher train identical to the actual
output train yields exactly zero update.

One sign rule for both: every parameter is a magnitude (rates, amplitude and
the band [W_min, W_max]), and the projection's sign alone picks the
direction. Excitatory weights live in [W_min, W_max], inhibitory in
[-W_max, -W_min], and "potentiation" always grows |w|.

Every projection is its weights as one dense (n_pre, n_post) matrix and its
connections as one boolean mask of the same shape, so a pre event updates a
row, a post event a column, and the supervised rule adds one matrix product;
non-connections are held at exactly 0. A loop prepares one StdpEvents per
learning projection; stdp_on_pre and stdp_on_post check their arguments and
then run the same arithmetic.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .neuron import _check_delivery
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
        # finite, so that events clipped to the band keep the weights finite
        if not all(map(math.isfinite, (self.A_plus, self.A_minus, self.W_max))):
            raise ValueError("STDP constants must be finite")
        if self.A_plus < 0.0 or self.A_minus < 0.0:
            raise ValueError("STDP rates must be non-negative")
        if not (0.0 <= self.W_min <= self.W_max):
            raise ValueError("need 0 <= W_min <= W_max")


@dataclass(frozen=True)
class ResumeParams:
    """Supervised-window constants. A and W_max / W_min are magnitudes."""

    A: float = 0.001            # window amplitude per causal pair
    tau: float = 10.0           # window time constant (ms)
    W_max: float = 1200.0       # magnitude bound (pA)
    W_min: float = 0.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.A, self.tau, self.W_max))):
            raise ValueError("ReSuMe constants must be finite")
        if self.A < 0.0:
            raise ValueError("ReSuMe amplitude A must be non-negative")
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if not (0.0 <= self.W_min <= self.W_max):
            raise ValueError("need 0 <= W_min <= W_max")


# Not used by the package, whose STDP projections take StdpParams(). Kept
# because the benchmark (perfbench/workloads.py) reads its clip band here.
def excitatory_stdp() -> StdpParams:
    return StdpParams()


class SynapsePopulation:
    """One projection: a dense weight matrix, its connection mask and
    plasticity state.

    `connected` is the boolean (n_pre, n_post) mask of the projection's
    connections (population-local ids); the projection keeps its own
    read-only copy, which its copies share. `W` is the matrix of signed
    weights (pA), exactly 0 where the projection has no connection. The
    connections are ordered pre-major, the C order of the mask; `weight`
    reads the per-connection weights in that order as a read-only array, and
    assigning `pop.weight = values` (an array in that order, or one scalar
    for all) validates and writes them into `W`. This per-connection order
    is the checkpoint layout. No per-connection array is stored: pre_index
    and post_index are worked out from the mask when read.

    `plasticity` is None for a static projection, StdpParams or ResumeParams
    otherwise.
    """

    def __init__(self, name: str, connected, weight, sign: str,
                 plasticity: StdpParams | ResumeParams | None = None) -> None:
        if sign not in SIGNS:
            raise ValueError(f"unknown synapse sign {sign!r}")
        connected = np.array(connected)     # the projection's own copy
        if connected.dtype != bool or connected.ndim != 2:
            raise ValueError(f"{name}: connected must be a 2-D boolean mask, "
                             f"got {connected.dtype} of shape {connected.shape}")
        connected.flags.writeable = False   # shared by copies
        self.name = name
        self.sign = sign
        self.plasticity = plasticity
        self.connected = connected
        self.n_pre, self.n_post = connected.shape
        self.n_connections = int(np.count_nonzero(connected))
        # non-connections, re-zeroed after every update; None when all-to-all
        self._off = None
        if self.n_connections < connected.size:
            self._off = ~connected
            self._off.flags.writeable = False
        self.W = np.zeros(connected.shape, dtype=np.float64)
        self.weight = weight

    def __repr__(self) -> str:
        return (f"SynapsePopulation(name={self.name!r}, sign={self.sign!r}, "
                f"n_pre={self.n_pre}, n_post={self.n_post}, "
                f"n_connections={self.n_connections}, mode={self.mode!r})")

    # -- weights --------------------------------------------------------

    @property
    def weight(self) -> np.ndarray:
        """Per-connection weights in connection order (a read-only copy)."""
        w = self.W[self.connected]
        w.flags.writeable = False
        return w

    @weight.setter
    def weight(self, values) -> None:
        w = np.asarray(values, dtype=np.float64)
        if w.ndim and w.shape != (self.n_connections,):
            raise ValueError(f"{self.name}: expected {self.n_connections} weights, "
                             f"got shape {w.shape}")
        try:
            _check_delivery(w, self.sign)
        except ValueError as err:
            raise ValueError(f"{self.name}: {err}") from None
        self.W[self.connected] = w

    @property
    def mode(self) -> str:
        if self.plasticity is None:
            return "static"
        return "stdp" if isinstance(self.plasticity, StdpParams) else "resume"

    def _bounds(self) -> tuple[float, float]:
        """The signed clip band of a plastic projection."""
        p = self.plasticity
        if self.sign == "excitatory":
            return (p.W_min, p.W_max)
        return (-p.W_max, -p.W_min)

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

    @property
    def pre_index(self) -> np.ndarray:
        """The pre neuron of each connection, in connection order."""
        return np.repeat(np.arange(self.n_pre), np.count_nonzero(self.connected, axis=1))

    @property
    def post_index(self) -> np.ndarray:
        """The post neuron of each connection, in connection order."""
        return np.flatnonzero(self.connected) % self.n_post

    def _rank(self) -> np.ndarray:
        """Each connection's position in connection order, at its mask cell
        (-1 where there is no connection)."""
        return np.cumsum(self.connected.ravel()).reshape(self.connected.shape) - 1

    def connections_by_pre(self, pre_ids: np.ndarray) -> np.ndarray:
        """Positions in connection order of the given pre neurons' connections,
        grouped by id in the order given, connection order within a group."""
        ids = np.asarray(pre_ids, dtype=np.int64)
        return self._rank()[ids][self.connected[ids]]

    def connections_by_post(self, post_ids: np.ndarray) -> np.ndarray:
        """Positions in connection order of the given post neurons' connections."""
        ids = np.asarray(post_ids, dtype=np.int64)
        return self._rank()[:, ids].T[self.connected[:, ids].T]

    def copy(self) -> "SynapsePopulation":
        """An independent projection: its own W, the shared read-only mask."""
        new = copy.copy(self)
        new.W = self.W.copy()
        return new


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


def _settle(block: np.ndarray, lo, hi, off: np.ndarray | None) -> None:
    """Clip an updated block of W to the band [lo, hi], then re-zero its
    non-connections `off` (clipping may have moved them off 0). np.clip, not
    np.maximum then np.minimum: those differ from it at a signed-zero bound."""
    np.clip(block, lo, hi, out=block)
    if off is not None:
        np.copyto(block, 0.0, where=off)


class StdpEvents:
    """The STDP events of one projection, prepared once per simulation loop.

    Checks the stdp mode once and holds, as 0-d float64 arrays (see
    neuron.StepKernel), the signed step per unit of trace of a pre event
    (A_minus * W_max, shrinking |w|) and of a post event (A_plus * W_max,
    growing |w|), and the clip band; it also holds the non-connection mask
    and the projection's W, which the events update in place (it must not be
    replaced while they are in use). `on_pre` and `on_post` run only the
    arithmetic: the ids must be distinct and in range, the trace finite
    float64 of the right length. stdp_on_pre / stdp_on_post validate their
    arguments and then make one call of them.
    """

    def __init__(self, pop: SynapsePopulation) -> None:
        p = _require_stdp(pop)
        depress, potentiate = p.A_minus * p.W_max, p.A_plus * p.W_max
        if pop.sign == "excitatory":
            depress = -depress
        else:
            potentiate = -potentiate
        # trace * -c equals -(c * trace) bit for bit, signed zeros included
        self._depress, self._potentiate = np.array(depress), np.array(potentiate)
        self._lo, self._hi = (np.array(b, dtype=np.float64) for b in pop._bounds())
        self.W, self._off = pop.W, pop._off

    def on_pre(self, ids: np.ndarray, trace: np.ndarray) -> None:
        """Depress each spiking pre neuron's row of W by the post traces."""
        self._add(ids, trace * self._depress, ids.size == self.W.shape[0])

    def on_post(self, ids: np.ndarray, trace: np.ndarray) -> None:
        """Potentiate each spiking post neuron's column of W by the pre traces."""
        self._add((slice(None), ids), (trace * self._potentiate)[:, None],
                  ids.size == self.W.shape[1])

    def _add(self, at, delta: np.ndarray, whole: bool) -> None:
        """W[at] += delta, then clip and re-zero. When every row or column
        takes the event (a volley) the update runs in place: gathering and
        scattering the whole matrix costs more than the update itself."""
        W, off = self.W, self._off
        if whole:
            W += delta
            _settle(W, self._lo, self._hi, off)
            return
        block = W[at]
        block += delta
        _settle(block, self._lo, self._hi, None if off is None else off[at])
        W[at] = block


def _event_ids(pop: SynapsePopulation, ids, n: int, kind: str) -> np.ndarray:
    ids = np.atleast_1d(np.asarray(ids))
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"{pop.name}: {kind} ids must be integers, got {ids.dtype}")
    ids = ids.astype(np.int64, copy=False)
    if ids.ndim != 1:
        raise ValueError(f"{pop.name}: {kind} ids must be an int or a 1-D array")
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(f"{pop.name}: {kind} id out of range")
    if np.unique(ids).size != ids.size:
        raise ValueError(f"{pop.name}: repeated {kind} id")
    return ids


def _event_trace(pop: SynapsePopulation, trace, n: int) -> np.ndarray:
    if np.shape(trace) != (n,):
        raise ValueError(f"{pop.name}: expected a trace of {n} neurons, "
                         f"got shape {np.shape(trace)}")
    trace = np.asarray(trace, dtype=np.float64)
    if not np.all(np.isfinite(trace)):
        raise ValueError(f"{pop.name}: non-finite trace")
    return trace


def stdp_on_pre(pop: SynapsePopulation, pre_neuron,
                trace: np.ndarray) -> SynapsePopulation:
    """Apply the pre-spike event: depress each spiking pre neuron's row of W
    by `trace`, the post neurons' traces.

    `pre_neuron` may be an int or an array of distinct ids spiking this step.
    The traces must already be decayed to the current step and not yet
    bumped by this step's spikes.

    Every call checks the mode, the ids and the trace, and prepares the
    event; a loop that applies many events prepares one StdpEvents instead.
    """
    events = StdpEvents(pop)
    ids = _event_ids(pop, pre_neuron, pop.n_pre, "pre")
    trace = _event_trace(pop, trace, pop.n_post)
    if ids.size:
        events.on_pre(ids, trace)
    return pop


def stdp_on_post(pop: SynapsePopulation, post_neuron,
                 trace: np.ndarray) -> SynapsePopulation:
    """Apply the post-spike event: potentiate each spiking post neuron's
    column of W by `trace`, the pre neurons' traces, which must already
    include this step's pre spikes (so coincident pairs potentiate).

    Every call checks the mode, the ids and the trace, and prepares the
    event; a loop that applies many events prepares one StdpEvents instead.
    """
    events = StdpEvents(pop)
    ids = _event_ids(pop, post_neuron, pop.n_post, "post")
    trace = _event_trace(pop, trace, pop.n_pre)
    if ids.size:
        events.on_post(ids, trace)
    return pop


# -- supervised window rule ------------------------------------------------


def resume_window(s, params: ResumeParams) -> np.ndarray | float:
    """Learning window W(s) = A * exp(-s / tau) for s > 0, exactly 0 otherwise:
    a magnitude, which the projection's sign turns into a direction."""
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
    causal pairs are S = A * Tr^T Y, exact for times off the dt grid; W moves
    by W_max * S, negated for an inhibitory projection so that a teacher
    spike grows |w|. Identical teacher and actual trains give a zero column
    of Y and cancel exactly.
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
    scale = p.W_max * p.A
    if pop.sign == "inhibitory":
        scale = -scale
    pop.W += scale * (Tr.T @ Y)
    _settle(pop.W, *pop._bounds(), pop._off)
    return pop


def freeze(pop: SynapsePopulation) -> SynapsePopulation:
    """Make the projection static, preserving weights bit-exactly. Idempotent."""
    pop.plasticity = None
    return pop
