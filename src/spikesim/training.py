"""Simulation engine and the two-phase training protocol.

A presentation runs one image for `window` ms in steps of `dt`: the input
layer receives the encoded DC currents, spikes propagate through every
projection with a one-step synaptic delay, and (in phase 1) STDP events fire
online as spikes happen. Neuron state and the eligibility traces (one per
neuron) live only inside a presentation, so presentations are independent
and checkpoints at presentation boundaries are exact resume points.

The engine runs the network by the two stages that `topology.STAGES`
declares: the lower stage (input, feature, inhib), then the readout. Spikes
flow only forward between stages, so once the projections into the lower
stage are frozen (phase 2, the weight search, evaluation) an image's
lower-stage spikes depend on the image alone. Those calls simulate the lower
stage once per image, CHUNK images at a time with state shaped (images,
neurons), keep each image's raster for the rest of the call, and replay its
feature spikes into the readout stage, which evaluation also runs batched.
Each such call builds its own raster set (`_Rasters`) and passes it on; the
weight search builds one and hands it to each trial's training and scoring.
Phase 1 runs both stages for one image at a time, since STDP writes the
weights on every spiking step. One step loop, `_simulate`, serves all of
these, and each image's result is bit-identical to a presentation that
simulates the whole network alone.

Phase 1 trains `net.lower_projections` with STDP while the readout's stay
static. Phase 2 freezes those and trains every other projection (the lateral
readout inhibition only under `train_readout_lateral`) from its pre layer's
spikes by the supervised window rule, once per presentation, against the
presented class's teacher train. Classification is winner-takes-all over
summed per-class readout spike counts, ties resolved to the lowest class
index and flagged. `classify` is a one-image `evaluate`; neither learns, so
both take a network in any mode and leave every weight as it is.

Everything is deterministic given the seeds: dataset order is fixed unless a
shuffle seed is supplied (per-epoch order then derives statelessly from
(shuffle_seed, epoch)), and no other step consumes randomness.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import (Dataset, ImageSample, checkpoint_from_network, save_checkpoint,
                     write_atomic)
from .encoding import EncodingConfig, encode_image
from .neuron import (StepKernel, _channel, _check_delivery, _inject, _require_finite,
                     _window_steps, new_state)
from .plasticity import (SIGNS, TAU_TRACE, ResumeParams, StdpEvents, StdpParams,
                         freeze, resume_update)
from .records import SpikeRecord
from .topology import Layer, NetworkTopology, teacher_train

# Not called by the engine, which steps through one StepKernel, decays the
# traces by a factor of its own, and applies STDP events and deliveries
# through their prepared arithmetic. Kept importable from here because the
# benchmark's tracer (perfbench/tracer.py) patches these names on this module.
from .neuron import deliver_spike, step_neuron
from .plasticity import decay_traces, stdp_on_post, stdp_on_pre

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimulationConfig:
    """Clock and protocol constants for simulation and training."""

    dt: float = 0.1                 # step size (ms)
    window: float = 100.0           # presentation length (ms)
    epochs_phase1: int = 5
    epochs_phase2: int = 5
    checkpoint_interval: int = 500  # presentations between checkpoints
    shuffle_seed: int | None = None  # None = fixed dataset order

    def __post_init__(self) -> None:
        _require_finite(self)
        _window_steps(self.window, self.dt)
        if self.epochs_phase1 < 0 or self.epochs_phase2 < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be positive")
        if self.shuffle_seed is not None and self.shuffle_seed < 0:
            raise ValueError(f"shuffle_seed must be non-negative, got {self.shuffle_seed}")

    @property
    def n_steps(self) -> int:
        return _window_steps(self.window, self.dt)


@dataclass(frozen=True)
class ClassificationResult:
    predicted: int
    class_counts: np.ndarray    # summed spikes per class group
    neuron_counts: np.ndarray   # spikes per readout neuron
    tie: bool


@dataclass(frozen=True)
class EvaluationReport:
    """Accuracy summary: one row per class present in the dataset."""

    overall: float
    class_ids: np.ndarray
    class_names: tuple[str, ...]
    per_class: np.ndarray
    n_per_class: np.ndarray
    mean_class: float           # mean of per_class rows
    std_class: float            # population std of per_class rows
    n_samples: int
    ties: int

    def render(self) -> str:
        lines = [f"{'class':<14} {'n':>5} {'accuracy':>9}"]
        for cid, name, acc, n in zip(self.class_ids, self.class_names,
                                     self.per_class, self.n_per_class):
            lines.append(f"{name:<14} {n:>5d} {100.0 * acc:>8.2f}%")
        lines.append(f"{'overall':<14} {self.n_samples:>5d} {100.0 * self.overall:>8.2f}%")
        lines.append(f"mean over classes: {100.0 * self.mean_class:.2f}% "
                     f"+- {100.0 * self.std_class:.3f}%")
        return "\n".join(lines)


@dataclass
class PhaseResult:
    net: NetworkTopology
    checkpoints: list[Path]
    epoch_stats: list[dict]


@dataclass(frozen=True)
class Trial:
    weight: float
    accuracy: float


@dataclass(frozen=True)
class SearchResult:
    best_weight: float
    trials: list[Trial]


# -- the presentation engine -------------------------------------------------

# Images simulated together by one batched pass of the frozen lower stage
# (and of `evaluate`'s readout stage).
CHUNK = 32
# Bytes of lower-stage rasters one call keeps for reuse. An image past the
# bound is simulated again, with its chunk, every time it is presented.
RASTER_BYTES = 256 * 2**20


@dataclass(frozen=True)
class Raster:
    """One image's spikes over a range of neurons: the neurons that fire in
    step k are ids[offsets[k]:offsets[k + 1]], ascending."""

    ids: np.ndarray
    offsets: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.ids.nbytes + self.offsets.nbytes

    def events(self) -> list[tuple[int, np.ndarray]]:
        """(step, neuron ids) for every step in which some neuron fires."""
        o, ids = self.offsets.tolist(), self.ids.astype(np.int64)
        return [(k, ids[o[k]:o[k + 1]]) for k in np.flatnonzero(np.diff(self.offsets)).tolist()]

    def bounds(self, layer: Layer) -> tuple[np.ndarray, np.ndarray]:
        """Per step k, where the spikes of `layer` lie: ids[start[k]:stop[k]]."""
        o = self.offsets
        steps = np.repeat(np.arange(o.size - 1), np.diff(o))
        below = lambda i: o[:-1] + np.bincount(steps[self.ids < i], minlength=o.size - 1)
        return below(layer.start), below(layer.stop)


@dataclass(frozen=True)
class _Replay(ImageSample):
    """A sample with the raster of its frozen lower stage: `present_image`
    replays the raster and simulates only the readout stage."""

    raster: Raster | None = None


def _simulate(net: NetworkTopology, sim: SimulationConfig, span: slice, images: list = (),
              enc: EncodingConfig | None = None, rasters: list[Raster] | tuple = (),
              plastic: bool = False) -> list[Raster]:
    """The step loop: the stages `net.stages[span]` for a batch of images.
    A range that starts at the first stage takes the `images` (pixels or
    samples), which `enc` encodes into the input layer's external current; a
    later range takes the `rasters` of the stages before it, whose spikes it
    replays, and no external current. With `plastic` the projections in STDP
    mode learn, which needs a single image and the whole network. Returns
    each image's raster of the range. One StepKernel, prepared here, steps
    the neurons for the whole call, and each learning projection's
    StdpEvents and each channel's delivery are prepared here too.

    Every projection into the range has one route, built here: its post
    rows of its sign's drive, and where its spiking pre ids lie in a step.
    A pre layer inside the range is found by its place among the range's
    layers in the step's flat ids; one below the range by its start and
    stop positions in each image's raster. A spiking step adds, per image,
    the sum of those pre neurons' rows of W in ascending id order into the
    drive, which is delivered as the step ends and integrated from the next
    step. For one image and one drive cell the projections add in
    `net.wiring` order, so the routes stay one list in that order, and each
    image's raster is bit-identical to the image simulated alone through the
    whole network. The weights are checked once, here: each must be finite
    and of its projection's sign, and STDP keeps them in its clip band for
    the rest of the call.
    """
    params, dt, n_steps = net.params, sim.dt, sim.n_steps
    layers = [layer for stage in net.stages[span] for layer in stage]
    lo, hi = layers[0].start, layers[-1].stop
    n, batch = hi - lo, len(images) or len(rasters)
    inp = net.input_layer
    I_ext = np.zeros((batch, n), dtype=np.float64)
    for row, img in zip(I_ext, images):
        px = np.asarray(getattr(img, "pixels", img), dtype=np.float64)
        if px.shape != (net.config.rows, net.config.cols):
            raise ValueError(f"image shape {px.shape} != ({net.config.rows}, {net.config.cols})")
        row[inp.start - lo:inp.stop - lo] = encode_image(px, enc)
    wired = [(net.projections[name], pre, post) for name, (pre, post) in net.wiring.items()]
    learning = [(pop, pre, post) for pop, pre, post in wired if plastic and pop.mode == "stdp"]
    if learning and (batch != 1 or lo != 0 or hi != net.n_neurons):
        raise ValueError("STDP needs one image through every stage")
    into = [(pop, pre, post) for pop, pre, post in wired if lo <= post.start < hi]
    for pop, _, _ in into:
        try:
            _check_delivery(pop.W, pop.sign)
        except ValueError as err:
            raise ValueError(f"{pop.name}: {err}") from None

    # a lone image steps as a 1-D population: numpy runs it with less
    # overhead per call than a (1, n) batch
    shape = (n,) if batch == 1 else (batch, n)
    state = new_state(shape, params)
    step = StepKernel(state, params, I_ext.reshape(shape), dt)
    # one eligibility trace per neuron
    trace = np.zeros(n, dtype=np.float64)
    # a 0-d float64, as the kernel's constants are: numpy converts a Python
    # float operand on every multiply (see neuron._step_constants)
    trace_decay = np.array(math.exp(-dt / TAU_TRACE))
    # per sign: its pending drive, one row per image, and its channel's y1
    # and delivery factor (the drive delivered in the state's shape)
    drive = {sign: np.zeros((batch, n), dtype=np.float64) for sign in SIGNS}
    deliveries = [(pending.reshape(shape), *_channel(state, sign, params))
                  for sign, pending in drive.items()]
    # in the flat (image, neuron) index of a step's ids, image b's layer j
    # starts at edges[b * m + j], and its last layer ends at edges[b * m + m - 1]
    m = len(layers) + 1
    edges = (np.arange(batch)[:, None] * n
             + np.array([layer.start - lo for layer in layers] + [n])).ravel()
    first = edges.tolist()
    # one route per projection into the range, in wiring order: its post
    # rows of the drive per image, the shift per image from a position's id
    # to its pre layer's local id, and where the pre ids lie: the pre
    # layer's place j in the range, or, below the range, the (steps, images)
    # start and stop positions in each image's raster
    routes = []
    fed = np.zeros(n_steps, dtype=bool)
    for pop, pre, post in into:
        rows = list(drive[pop.sign][:, post.start - lo:post.stop - lo])
        if pre.start >= lo:
            j = layers.index(pre)
            routes.append((pop, rows, first[j::m], j, None))
        else:
            start, stop = (np.stack(b, axis=1) for b in zip(*(r.bounds(pre) for r in rasters)))
            fed |= (stop > start).any(axis=1)
            routes.append((pop, rows, [pre.start] * batch, None, (start, stop)))
    k0 = 0
    if rasters and params.E_L < params.omega:
        # a neuron at rest without input stays exactly at rest, so the range
        # starts at its first input
        k0 = int(np.argmax(fed)) if fed.any() else n_steps
    fed = fed.tolist()
    # per learning projection: its events, its pre and post layers' places,
    # and the traces its pre events read (post) and its post events (pre)
    plastic = [(StdpEvents(pop), layers.index(pre), layers.index(post),
                trace[post.start - lo:post.stop - lo], trace[pre.start - lo:pre.stop - lo])
               for pop, pre, post in learning]
    # per spiking step: the step, its flat ids, and where each image's ids
    # begin among them (and the last one's end)
    steps: list[int] = []
    fired: list[np.ndarray] = []
    cuts: list[list[int]] = []

    for k in range(k0, n_steps):
        ids = step()
        if learning:
            trace *= trace_decay
        if not ids.size and not fed[k]:
            continue
        if ids.size:
            # the positions of every image's layer edges among the ids
            at = np.searchsorted(ids, edges).tolist()
            steps.append(k)
            fired.append(ids)
            cuts.append(at[::m] + at[-1:])
        if learning:
            # one image: layer j's ids lie at at[j]:at[j + 1]. Pre events
            # read the post traces before this step's spikes bump them, post
            # events the pre traces after: coincident pairs potentiate
            for events, j, _, post_trace, _ in plastic:
                if at[j] < at[j + 1]:
                    events.on_pre(ids[at[j]:at[j + 1]] - first[j], post_trace)
            trace[ids] += 1.0
            for events, _, j, _, pre_trace in plastic:
                if at[j] < at[j + 1]:
                    events.on_post(ids[at[j]:at[j + 1]] - first[j], pre_trace)
        # deliveries use the weights as updated by this step's plasticity
        for pop, rows, shift, j, bounds in routes:
            if j is not None:
                if ids.size:
                    for row, x, y, s in zip(rows, at[j::m], at[j + 1::m], shift):
                        if x < y:
                            row += pop.summed_input(ids[x:y] - s)
            elif fed[k]:
                x, y = bounds[0][k], bounds[1][k]
                for b in np.flatnonzero(y > x).tolist():
                    rows[b] += pop.summed_input(rasters[b].ids[x[b]:y[b]] - shift[b])
        for pending, y1, gain in deliveries:
            if pending.any():
                _inject(y1, pending, gain)
                pending.fill(0.0)
    out = []
    for b in range(batch):
        parts = [ids[cut[b]:cut[b + 1]] for ids, cut in zip(fired, cuts)]
        counts = np.zeros(n_steps, dtype=np.int64)
        counts[steps] = [part.size for part in parts]
        ids = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        # flat index b * n + i is neuron lo + i
        out.append(Raster((ids - (b * n - lo)).astype(np.int32),
                          np.concatenate(([0], np.cumsum(counts))).astype(np.int32)))
    return out


def present_image(net: NetworkTopology, img, sim: SimulationConfig,
                  enc: EncodingConfig, plastic: bool = False) -> SpikeRecord:
    """Run one presentation; returns the spike record over all neurons.

    With plastic=True the STDP projections update online; the supervised rule
    is a batch update owned by run_phase2 (it needs the label). Neuron state
    and traces are created on entry, so back-to-back calls are independent.
    A sample that carries the raster of its frozen lower stage (phase 2)
    replays it and simulates only the readout stage.
    """
    raster = getattr(img, "raster", None)
    if raster is None:
        events = _simulate(net, sim, slice(None), [img], enc, plastic=plastic)[0].events()
    else:
        if plastic:
            raise ValueError("a replayed presentation cannot learn by STDP")
        readout = _simulate(net, sim, slice(-1, None), rasters=[raster])[0]
        events = raster.events() + readout.events()
    return SpikeRecord.from_step_events(events, net.n_neurons, sim.dt, sim.window)


class _Rasters:
    """The lower-stage rasters of a sequence of images (pixels or samples)
    under `net`, for the call that makes them and hands them on.

    Made a chunk at a time, CHUNK images per batched pass, when an image is
    first presented, and kept while their bytes stay within RASTER_BYTES.
    They hold for the lower weights of `net`, which the readout stage's
    training leaves alone, so a copy of `net` that differs only in its
    readout projections replays them too.
    """

    def __init__(self, net: NetworkTopology, images, sim: SimulationConfig,
                 enc: EncodingConfig) -> None:
        self.net, self.images, self.sim, self.enc = net, images, sim, enc
        self.kept: dict[int, Raster] = {}
        self.bytes = 0
        self.built = 0          # lower-stage passes, one per image
        self.replayed = 0       # presentations served from a raster

    def chunks(self, order) -> Iterator[list[tuple[int, Raster]]]:
        """The (index, raster) pairs of `order`, CHUNK at a time."""
        order = [int(i) for i in order]
        for at in range(0, len(order), CHUNK):
            part = order[at:at + CHUNK]
            todo = [i for i in dict.fromkeys(part) if i not in self.kept]
            made = {}
            if todo:
                images = [self.images[i] for i in todo]
                for i, raster in zip(todo, _simulate(self.net, self.sim, slice(0, -1),
                                                     images, self.enc)):
                    made[i] = raster
                    if self.bytes + made[i].nbytes <= RASTER_BYTES:
                        self.kept[i] = made[i]
                        self.bytes += made[i].nbytes
                self.built += len(todo)
            self.replayed += len(part)
            yield [(i, self.kept[i] if i in self.kept else made[i]) for i in part]

    def samples(self, order) -> Iterator[_Replay]:
        """The samples of `order`, each carrying its raster (the images must
        be samples)."""
        for chunk in self.chunks(order):
            for i, raster in chunk:
                s = self.images[i]
                yield _Replay(pixels=s.pixels, label=s.label, source_id=s.source_id,
                              raster=raster)

    def log(self, what: str, since: tuple[int, int] = (0, 0)) -> None:
        """One INFO line: rasters built and presentations replayed since the
        (built, replayed) counts `since`, and the bytes of rasters held."""
        logger.info("%s: %d lower-stage rasters built, %d presentations replayed, "
                    "%d bytes of rasters held", what, self.built - since[0],
                    self.replayed - since[1], self.bytes)


# -- phase orchestration -----------------------------------------------------


def set_phase1_modes(net: NetworkTopology) -> NetworkTopology:
    """STDP on the projections into the lower stage, the readout's static."""
    for name, pop in net.projections.items():
        if name in net.lower_projections:
            pop.plasticity = StdpParams()
        else:
            freeze(pop)
    return net


def set_phase2_modes(net: NetworkTopology) -> NetworkTopology:
    """Freeze the STDP projections; the supervised rule on every other one,
    the readout's lateral inhibition only under train_readout_lateral."""
    for name, pop in net.projections.items():
        if name in net.lower_projections or (
                name == "readout_lateral" and not net.config.train_readout_lateral):
            freeze(pop)
        else:
            pop.plasticity = ResumeParams()
    return net


def _epoch_order(n: int, epoch: int, sim: SimulationConfig) -> np.ndarray:
    if sim.shuffle_seed is None:
        return np.arange(n)
    rng = np.random.default_rng((sim.shuffle_seed, epoch))
    return rng.permutation(n)


def _weight_stats(net: NetworkTopology) -> dict:
    out = {}
    for pop in net.ordered_projections():
        w = pop.weight
        out[pop.name] = {"mean": float(w.mean()) if w.size else 0.0,
                         "min": float(w.min()) if w.size else 0.0,
                         "max": float(w.max()) if w.size else 0.0}
    return out


def _run_epochs(net: NetworkTopology, dataset: Dataset, sim: SimulationConfig,
                phase: int, epochs: int, step, out_dir: str | Path | None,
                start_presentation: int, samples=None) -> PhaseResult:
    """The epoch protocol shared by both phases.

    Runs `step(sample)` on every presentation past `start_presentation`,
    saves a checkpoint every `checkpoint_interval` presentations and a final
    one, and writes one JSONL record per epoch. Steps that return a bool
    (phase 2: sample classified correctly) add their mean as `train_accuracy`.
    `samples(order)` yields the samples of an epoch's dataset indices still
    to present (default: the dataset's own samples).
    """
    if samples is None:
        samples = lambda order: (dataset[int(i)] for i in order)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    if len(dataset) == 0:
        logger.warning("phase %d: empty dataset, nothing to train", phase)
    paths: list[Path] = []

    def save(counter: int, tag: str) -> None:
        if out is not None:
            path = out / f"ckpt_phase{phase}_{tag}.bin"
            save_checkpoint(checkpoint_from_network(net, phase, counter), path)
            paths.append(path)

    counter = 0
    epoch_stats: list[dict] = []
    for epoch in range(epochs):
        correct: list[bool] = []
        order = _epoch_order(len(dataset), epoch, sim)
        skip = min(order.size, max(0, start_presentation - counter))
        counter += skip
        for sample in samples(order[skip:]):
            counter += 1
            if (hit := step(sample)) is not None:
                correct.append(hit)
            if counter % sim.checkpoint_interval == 0:
                save(counter, f"{counter:08d}")
        stats = {"event": "epoch", "phase": phase, "epoch": epoch + 1,
                 "presentations": counter, "weights": _weight_stats(net)}
        if correct:
            stats["train_accuracy"] = float(np.mean(correct))
        epoch_stats.append(stats)
        logger.info("phase %d epoch %d/%d done (%d presentations)%s",
                    phase, epoch + 1, epochs, counter,
                    f" acc={stats['train_accuracy']:.3f}" if correct else "")
    save(counter, "final")
    if out is not None:
        log = "".join(json.dumps(s, sort_keys=True) + "\n" for s in epoch_stats)
        write_atomic(out / f"phase{phase}_log.jsonl", log.encode())
    return PhaseResult(net=net, checkpoints=paths, epoch_stats=epoch_stats)


def run_phase1(net: NetworkTopology, dataset: Dataset, sim: SimulationConfig,
               enc: EncodingConfig, out_dir: str | Path | None = None,
               start_presentation: int = 0) -> PhaseResult:
    """Unsupervised feature training: STDP over epochs of presentations."""
    set_phase1_modes(net)

    def step(sample: ImageSample) -> None:
        present_image(net, sample, sim, enc, plastic=True)

    return _run_epochs(net, dataset, sim, 1, sim.epochs_phase1, step, out_dir,
                       start_presentation)


def _teacher_records(net: NetworkTopology, sim: SimulationConfig,
                     enc: EncodingConfig) -> list[SpikeRecord]:
    """Teacher spikes for the readout layer, one record per class: that
    class's group gets the max-rate train, every other neuron stays silent."""
    train = teacher_train(sim.window, enc.target, sim.dt)
    return [SpikeRecord([train if c == label else np.empty(0) for c in net.class_of],
                        sim.window)
            for label in range(net.config.n_classes)]


def check_labels(net: NetworkTopology, dataset: Dataset) -> None:
    """Reject labels the readout has no class group for."""
    labels = dataset.labels()
    bad = np.flatnonzero(labels >= net.config.n_classes)
    if bad.size:
        raise ValueError(
            f"sample {bad[0]} has label {labels[bad[0]]}, but the network has "
            f"only {net.config.n_classes} classes")


def frozen_eval_net(net: NetworkTopology) -> NetworkTopology:
    """A copy of `net` with every projection static. Classifying needs none:
    `classify` and `evaluate` never learn, whatever the modes."""
    frozen = net.copy()
    for pop in frozen.projections.values():
        freeze(pop)
    return frozen


def run_phase2(net: NetworkTopology, dataset: Dataset, sim: SimulationConfig,
               enc: EncodingConfig, out_dir: str | Path | None = None,
               start_presentation: int = 0) -> PhaseResult:
    """Supervised readout training against per-class teacher trains; each
    presentation is classified before its update (the epoch's train_accuracy).
    The frozen lower stage of each image is simulated once, and its raster
    replayed into the readout in every epoch."""
    check_labels(net, dataset)
    return _train_readout(net, _Rasters(net, dataset, sim, enc), sim.epochs_phase2,
                          out_dir, start_presentation)


def _train_readout(net: NetworkTopology, rasters: _Rasters, epochs: int,
                   out_dir: str | Path | None, start_presentation: int) -> PhaseResult:
    """`epochs` of phase 2 over the dataset of `rasters`, replaying them."""
    sim, enc = rasters.sim, rasters.enc
    set_phase2_modes(net)
    teachers = _teacher_records(net, sim, enc)
    since = rasters.built, rasters.replayed
    readout = net.readout_layer
    # the projections in resume mode, in wiring order, with their pre layers
    learning = [(net.projections[name], pre) for name, (pre, _) in net.wiring.items()
                if net.projections[name].mode == "resume"]

    def step(sample: ImageSample) -> bool:
        # a presentation that is not plastic learns nothing: classify() agrees
        record = present_image(net, sample, sim, enc, plastic=False)
        teacher = teachers[sample.label]
        actual = record.subset(readout.start, readout.stop)
        predicted, _, _ = _predict(net, actual.counts())
        for pop, pre in learning:
            resume_update(pop, teacher, actual, record.subset(pre.start, pre.stop), sim.window)
        return predicted == sample.label

    result = _run_epochs(net, rasters.images, sim, 2, epochs, step, out_dir,
                         start_presentation, rasters.samples)
    rasters.log("phase 2", since)
    return result


# -- classification and evaluation -------------------------------------------


def _predict(net: NetworkTopology, counts: np.ndarray) -> tuple[int, np.ndarray, bool]:
    """Winner-takes-all over the readout spike counts summed per class:
    (predicted class, class counts, tie), a tie going to the lowest index."""
    class_counts = np.bincount(net.class_of, weights=counts, minlength=net.config.n_classes)
    winners = np.flatnonzero(class_counts == class_counts.max())
    return int(winners[0]), class_counts, winners.size > 1


def classify(net: NetworkTopology, img, sim: SimulationConfig,
             enc: EncodingConfig) -> ClassificationResult:
    """Winner-takes-all prediction for one image: a one-image evaluation."""
    return _classify_all(net, _Rasters(net, [img], sim, enc))[0]


def _classify_all(net: NetworkTopology, rasters: _Rasters) -> list[ClassificationResult]:
    """classify() of every image of `rasters`, the readout stage run CHUNK
    images at a time on the replayed lower-stage rasters. No step learns, so
    `net` may be in any mode and keeps every weight."""
    since = rasters.built, rasters.replayed
    readout = net.readout_layer
    results = []
    for chunk in rasters.chunks(range(len(rasters.images))):
        for raster in _simulate(net, rasters.sim, slice(-1, None),
                                rasters=[r for _, r in chunk]):
            ids = raster.ids
            inside = ids[(ids >= readout.start) & (ids < readout.stop)] - readout.start
            counts = np.bincount(inside, minlength=readout.size)
            predicted, class_counts, tie = _predict(net, counts)
            results.append(ClassificationResult(predicted, class_counts, counts, tie))
    rasters.log("evaluation", since)
    return results


def _correct(results: list[ClassificationResult], dataset: Dataset) -> np.ndarray:
    """Per sample, whether its prediction matches its label."""
    return np.array([r.predicted for r in results], dtype=np.int64) == dataset.labels()


def evaluate(net: NetworkTopology, dataset: Dataset, sim: SimulationConfig,
             enc: EncodingConfig) -> EvaluationReport:
    """Accuracy over a dataset: overall, per class, and the class mean +- std."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate an empty dataset")
    check_labels(net, dataset)
    results = _classify_all(net, _Rasters(net, dataset, sim, enc))
    labels = dataset.labels()
    correct = _correct(results, dataset)
    class_ids = np.flatnonzero(np.bincount(labels, minlength=dataset.n_classes))
    per_class = np.array([correct[labels == c].mean() for c in class_ids])
    n_per_class = np.array([(labels == c).sum() for c in class_ids])
    return EvaluationReport(
        overall=float(correct.mean()),
        class_ids=class_ids,
        class_names=tuple(dataset.class_names[c] for c in class_ids),
        per_class=per_class,
        n_per_class=n_per_class,
        mean_class=float(per_class.mean()),
        std_class=float(per_class.std()),
        n_samples=len(dataset),
        ties=sum(r.tie for r in results),
    )


# -- initial readout weight search -------------------------------------------


def monte_carlo_weight_search(net: NetworkTopology, candidates: tuple[float, float],
                              trials: int, eval_subset: Dataset,
                              sim: SimulationConfig, enc: EncodingConfig,
                              seed: int = 0) -> SearchResult:
    """Sample feat_readout initial weights, score each by a short phase-2 run.

    Each trial copies the phase-1-trained network, sets every feat_readout
    weight to the candidate, trains one phase-2 epoch on eval_subset, and
    scores its accuracy on eval_subset. Ties pick the smaller weight.
    Deterministic for a given seed. The trials differ only in feat_readout,
    so one raster set, built here, serves every trial's training and
    scoring: the lower stage runs once per image for all of them.
    """
    lo, hi = candidates
    if not (np.isfinite(lo) and np.isfinite(hi) and 0.0 <= lo <= hi):
        raise ValueError(f"bad candidate range ({lo}, {hi})")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len(eval_subset) == 0:
        raise ValueError("eval_subset must not be empty")
    check_labels(net, eval_subset)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(lo, hi, trials)
    rasters = _Rasters(net, eval_subset, sim, enc)
    results: list[Trial] = []
    for i, w in enumerate(weights):
        candidate = net.copy()
        candidate.projections["feat_readout"].weight = w
        _train_readout(candidate, rasters, 1, None, 0)
        accuracy = float(_correct(_classify_all(candidate, rasters), eval_subset).mean())
        results.append(Trial(weight=float(w), accuracy=accuracy))
        logger.info("weight search trial %d/%d: w=%.3f acc=%.4f",
                    i + 1, trials, w, accuracy)
    rasters.log("weight search")
    best_acc = max(t.accuracy for t in results)
    best_weight = min(t.weight for t in results if t.accuracy == best_acc)
    return SearchResult(best_weight=best_weight, trials=results)
