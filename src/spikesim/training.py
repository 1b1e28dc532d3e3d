"""Simulation engine and the two-phase training protocol.

A presentation runs one image for `window` ms in steps of `dt`: the input
layer receives the encoded DC currents, spikes propagate through every
projection with a one-step synaptic delay, and (in phase 1) STDP events fire
online as spikes happen. Neuron state and the eligibility traces (one per
neuron) live only inside a presentation, so presentations are independent
and checkpoints at presentation boundaries are exact resume points.

The engine runs the network by stages (`topology.stage_table`): input,
feature with inhib, readout. Spikes flow only forward between stages, so
once the projections into the lower stages are frozen (phase 2, the weight
search, evaluation) an image's lower-stage spikes depend on the image alone.
Those calls simulate the lower stages once per image, CHUNK images at a time
with state shaped (images, neurons), keep each image's raster for the rest
of the call, and replay its feature spikes into the readout stage, which
evaluation also runs batched. Phase 1 runs every stage for one image at a
time, since STDP writes the weights on every spiking step. One step loop,
`_simulate`, serves all of these, and each image's result is bit-identical
to a presentation that simulates the whole network alone.

Phase 1 trains input->feature, feature->inhib, and inhib->feature with STDP
while the readout projections stay static. Phase 2 freezes those three and
trains feature->readout (and optionally the lateral readout inhibition) with
the supervised window rule, applied once per presentation against the
presented class's teacher train. Classification is winner-takes-all over
summed per-class readout spike counts, ties resolved to the lowest class
index and flagged.

Everything is deterministic given the seeds: dataset order is fixed unless a
shuffle seed is supplied (per-epoch order then derives statelessly from
(shuffle_seed, epoch)), and no other step consumes randomness.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataio import (Dataset, ImageSample, checkpoint_from_network, save_checkpoint,
                     write_atomic)
from .encoding import EncodingConfig, encode_image
from .neuron import StepKernel, _channel, _check_delivery, _inject, new_state
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
    seed: int = 0                   # only the default for the CLI's search_seed
    shuffle_seed: int | None = None  # None = fixed dataset order

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        n = round(self.window / self.dt)
        if n < 1 or abs(n * self.dt - self.window) > 1e-6:
            raise ValueError(
                f"window {self.window} must be a positive multiple of dt {self.dt}")
        if self.epochs_phase1 < 0 or self.epochs_phase2 < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be positive")

    @property
    def n_steps(self) -> int:
        return round(self.window / self.dt)


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

# Images simulated together by one batched pass of the frozen lower stages
# (and of `evaluate`'s readout stage).
CHUNK = 32
# Bytes of lower-stage rasters one call keeps for reuse. An image past the
# bound is simulated again, with its chunk, every time it is presented.
RASTER_BYTES = 256 * 2**20


def _pixels_of(img) -> np.ndarray:
    return img.pixels if isinstance(img, ImageSample) else np.asarray(img, dtype=np.float64)


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
    """A sample with the raster of its frozen lower stages: `present_image`
    replays the raster and simulates only the readout stage."""

    raster: Raster | None = None


def _simulate(net: NetworkTopology, sim: SimulationConfig, first: int, last: int,
              I_ext: np.ndarray, rasters: list[Raster] | tuple = (),
              learning: list = ()) -> list[Raster]:
    """The step loop: stages [first, last) of `net.stages` for a batch of
    images, one row of `I_ext` (external current over the range's neurons)
    per image. Spikes of the stages before the range come from the images'
    `rasters`. `learning` lists the (projection, pre, post) triples that learn
    by STDP, which needs a single image and the whole network. Returns each
    image's raster of the range. One StepKernel, prepared here, steps the
    neurons for the whole call, and each learning projection's StdpEvents
    and each channel's delivery are prepared here too.

    Every projection into the range adds a spiking step's input per image,
    as the sum of its spiking pre neurons' rows of W in ascending id order,
    into its post layer's slice of that sign's drive, which is delivered
    as the step ends and integrated from the next step. Those weights are
    checked once, here: each must be finite and of its projection's sign,
    and STDP keeps them in its clip band for the rest of the call.
    """
    params, dt, n_steps = net.params, sim.dt, sim.n_steps
    layers = [layer for stage in net.stages[first:last] for layer in stage]
    lo, hi = layers[0].start, layers[-1].stop
    batch, n = I_ext.shape
    if learning and (batch != 1 or first != 0 or last != len(net.stages)):
        raise ValueError("STDP needs one image through every stage")
    wired = [(pop, *net.wiring[pop.name]) for pop in net.ordered_projections()]
    into = [(pop, pre, post) for pop, pre, post in wired if lo <= post.start < hi]
    for pop, _, _ in into:
        try:
            _check_delivery(pop.W, pop.sign)
        except ValueError as err:
            raise ValueError(f"{pop.name}: {err}") from None
    # per pre layer before the range: where its spikes lie in each image's
    # raster, as (steps, images) start and stop positions
    feeds = []
    fed = np.zeros(n_steps, dtype=bool)
    for pre in {pre for _, pre, _ in into if pre.stop <= lo}:
        start, stop = (np.stack(b, axis=1) for b in zip(*(r.bounds(pre) for r in rasters)))
        feeds.append((pre, start, stop))
        fed |= (stop > start).any(axis=1)
    k0 = 0
    if rasters and not I_ext.any() and params.E_L < params.omega:
        # a neuron at rest without input stays exactly at rest, so the range
        # starts at its first input
        k0 = int(np.argmax(fed)) if fed.any() else n_steps
    fed = fed.tolist()

    # a lone image steps as a 1-D population: numpy runs it with less
    # overhead per call than a (1, n) batch
    shape = (n,) if batch == 1 else (batch, n)
    I_ext = I_ext.reshape(shape)
    state = new_state(shape, params)
    step = StepKernel(state, params, I_ext, dt)
    # one eligibility trace per neuron; each layer's slice is a view into it
    trace = np.zeros(n, dtype=np.float64)
    trace_decay = math.exp(-dt / TAU_TRACE)
    trace_of = {layer.name: trace[layer.start - lo:layer.stop - lo] for layer in layers}
    # per learning projection: its events, its pre and post layers' names,
    # and the traces its pre events read (post) and its post events (pre)
    plastic = [(StdpEvents(pop), pre.name, post.name, trace_of[post.name], trace_of[pre.name])
               for pop, pre, post in learning]
    # the layer boundaries of every image in the flat (image, neuron) index,
    # and per image the (name, shift to a layer-local id) of each layer
    m = len(layers) + 1
    edges = (np.arange(batch)[:, None] * n
             + np.array([layer.start - lo for layer in layers] + [n])).ravel()
    local_of = [[(layer.name, b * n + layer.start - lo) for layer in layers]
                for b in range(batch)]

    def by_layer(ids: np.ndarray, b: int, cut: list[int]) -> dict[str, np.ndarray]:
        """Image b's spiking ids per layer, local to it, from the positions
        `cut` of its layer boundaries among the flat `ids`."""
        return {name: ids[x:y] - to_local
                for (name, to_local), x, y in zip(local_of[b], cut, cut[1:])}
    drive = {sign: np.zeros(shape, dtype=np.float64) for sign in SIGNS}
    # per projection: its pre layer's name and, per image, its post slice of
    # the drive of its sign
    targets = []
    for pop, pre, post in into:
        into_post = drive[pop.sign][..., post.start - lo:post.stop - lo]
        targets.append((pop, pre.name, [into_post] if batch == 1 else list(into_post)))
    # per sign: its pending drive, and its channel's y1 and delivery factor
    deliveries = [(pending, *_channel(state, sign, params)) for sign, pending in drive.items()]
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
        # image -> layer -> its spiking ids this step (a name hashes faster
        # than a Layer)
        spikes: dict[int, dict[str, np.ndarray]] = {}
        if ids.size:
            at = np.searchsorted(ids, edges).tolist()
            steps.append(k)
            fired.append(ids)
            if batch == 1:      # phase 1 runs this on almost every step
                spikes[0] = by_layer(ids, 0, at)
            else:
                cuts.append(at[::m] + at[-1:])
                for b in range(batch):
                    cut = at[b * m:(b + 1) * m]
                    if cut[0] < cut[-1]:
                        spikes[b] = by_layer(ids, b, cut)
        if fed[k]:
            for pre, start, stop in feeds:
                x, y = start[k], stop[k]
                for b in np.flatnonzero(y > x).tolist():
                    spikes.setdefault(b, {})[pre.name] = (
                        rasters[b].ids[x[b]:y[b]] - pre.start)
        if learning:
            local = spikes[0]
            # pre events read the post traces before this step's spikes bump
            # them, post events the pre traces after: coincident pairs potentiate
            for events, pre_name, _, post_trace, _ in plastic:
                if local[pre_name].size:
                    events.on_pre(local[pre_name], post_trace)
            trace[ids] += 1.0
            for events, _, post_name, _, pre_trace in plastic:
                if local[post_name].size:
                    events.on_post(local[post_name], pre_trace)
        # deliveries use the weights as updated by this step's plasticity
        for b, local in spikes.items():
            for pop, pre_name, into_post in targets:
                pre_ids = local.get(pre_name)
                if pre_ids is not None and pre_ids.size:
                    into_post[b] += pop.summed_input(pre_ids)
        for pending, y1, gain in deliveries:
            if pending.any():
                _inject(y1, pending, gain)
                pending.fill(0.0)
    out = []
    for b in range(batch):
        parts = fired if batch == 1 else [ids[cut[b]:cut[b + 1]] for ids, cut in zip(fired, cuts)]
        counts = np.zeros(n_steps, dtype=np.int64)
        counts[steps] = [part.size for part in parts]
        ids = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        # flat index b * n + i is neuron lo + i
        out.append(Raster((ids - (b * n - lo)).astype(np.int32),
                          np.concatenate(([0], np.cumsum(counts))).astype(np.int32)))
    return out


def _input_current(net: NetworkTopology, images: list, enc: EncodingConfig,
                   n: int) -> np.ndarray:
    """(images, n) external current: each image encoded onto the input layer."""
    cfg = net.config
    I_ext = np.zeros((len(images), n), dtype=np.float64)
    for row, img in zip(I_ext, images):
        px = _pixels_of(img)
        if px.shape != (cfg.rows, cfg.cols):
            raise ValueError(f"image shape {px.shape} != ({cfg.rows}, {cfg.cols})")
        row[net.input_layer.start:net.input_layer.stop] = encode_image(px, enc)
    return I_ext


def _readout_stage(net: NetworkTopology) -> int:
    return len(net.stages) - 1


def present_image(net: NetworkTopology, img, sim: SimulationConfig,
                  enc: EncodingConfig, plastic: bool = False) -> SpikeRecord:
    """Run one presentation; returns the spike record over all neurons.

    With plastic=True the STDP projections update online; the supervised rule
    is a batch update owned by run_phase2 (it needs the label). Neuron state
    and traces are created on entry, so back-to-back calls are independent.
    A sample that carries the raster of its frozen lower stages (phase 2)
    replays it and simulates only the readout stage.
    """
    raster = getattr(img, "raster", None)
    if raster is None:
        learning = [(pop, *net.wiring[pop.name]) for pop in net.ordered_projections()
                    if plastic and pop.mode == "stdp"]
        I_ext = _input_current(net, [img], enc, net.n_neurons)
        events = _simulate(net, sim, 0, len(net.stages), I_ext, learning=learning)[0].events()
    else:
        if plastic:
            raise ValueError("a replayed presentation cannot learn by STDP")
        top = _readout_stage(net)
        zero = np.zeros((1, net.n_neurons - net.stages[top][0].start))
        events = raster.events() + _simulate(net, sim, top, top + 1, zero, [raster])[0].events()
    return SpikeRecord.from_step_events(events, net.n_neurons, sim.dt, sim.window)


class _Rasters:
    """The lower-stage rasters of one dataset's images, for one call.

    Made a chunk at a time, CHUNK images per batched pass, when an image is
    first presented, and kept while their bytes stay within RASTER_BYTES.
    """

    def __init__(self, dataset: Dataset, sim: SimulationConfig, enc: EncodingConfig) -> None:
        self.dataset, self.sim, self.enc = dataset, sim, enc
        self.key: bytes | None = None     # set by shared()
        self.kept: dict[int, Raster] = {}
        self.bytes = 0
        self.built = 0          # lower-stage passes, one per image
        self.replayed = 0       # presentations served from a raster

    @staticmethod
    def _key(net: NetworkTopology, sim: SimulationConfig, enc: EncodingConfig) -> bytes:
        lower_stop = net.stages[_readout_stage(net)][0].start
        h = hashlib.blake2b(repr((net.config.fingerprint(), net.params, sim.dt,
                                  sim.n_steps, enc)).encode(), digest_size=16)
        for pop in net.ordered_projections():
            if net.wiring[pop.name][1].stop <= lower_stop:
                h.update(pop.W.tobytes())
        return h.digest()

    def shared(self, net: NetworkTopology) -> "_RasterDataset":
        """The dataset bringing these rasters, for several calls to share.
        They hold only for the lower weights, neuron parameters, clock and
        encoding of `net`, and `check` refuses any other network."""
        self.key = self._key(net, self.sim, self.enc)
        d = self.dataset
        return _RasterDataset(samples=d.samples, n_classes=d.n_classes,
                              class_names=d.class_names, rasters=self)

    def check(self, net: NetworkTopology, sim: SimulationConfig, enc: EncodingConfig) -> None:
        if self._key(net, sim, enc) != self.key:
            raise ValueError("the frozen lower stages changed since their rasters were made")

    def chunks(self, net: NetworkTopology, order) -> Iterator[list[tuple[int, Raster]]]:
        """The (index, raster) pairs of `order`, CHUNK at a time."""
        order = [int(i) for i in order]
        top = _readout_stage(net)
        for at in range(0, len(order), CHUNK):
            part = order[at:at + CHUNK]
            todo = [i for i in dict.fromkeys(part) if i not in self.kept]
            made = {}
            if todo:
                I_ext = _input_current(net, [self.dataset[i] for i in todo], self.enc,
                                       net.stages[top][0].start)
                for i, raster in zip(todo, _simulate(net, self.sim, 0, top, I_ext)):
                    made[i] = raster
                    if self.bytes + made[i].nbytes <= RASTER_BYTES:
                        self.kept[i] = made[i]
                        self.bytes += made[i].nbytes
                self.built += len(todo)
            self.replayed += len(part)
            yield [(i, self.kept[i] if i in self.kept else made[i]) for i in part]

    def samples(self, net: NetworkTopology, order) -> Iterator[_Replay]:
        """The samples of `order`, each carrying its raster."""
        for chunk in self.chunks(net, order):
            for i, raster in chunk:
                s = self.dataset[i]
                yield _Replay(pixels=s.pixels, label=s.label, source_id=s.source_id,
                              raster=raster)

    def log(self, what: str, since: tuple[int, int] = (0, 0)) -> None:
        """One INFO line: rasters built and presentations replayed since the
        (built, replayed) counts `since`, and the bytes of rasters held."""
        logger.info("%s: %d lower-stage rasters built, %d presentations replayed, "
                    "%d bytes of rasters held", what, self.built - since[0],
                    self.replayed - since[1], self.bytes)


@dataclass
class _RasterDataset(Dataset):
    """A dataset that brings the rasters of its images, to share them
    across the calls of one weight search."""

    rasters: _Rasters | None = None


def _rasters_for(net: NetworkTopology, dataset: Dataset, sim: SimulationConfig,
                 enc: EncodingConfig) -> _Rasters:
    """The rasters a call replays: those the dataset brings, checked against
    the network, or a new set that lives as long as the call."""
    rasters = getattr(dataset, "rasters", None)
    if rasters is None:
        return _Rasters(dataset, sim, enc)
    rasters.check(net, sim, enc)
    return rasters


# -- phase orchestration -----------------------------------------------------


def set_phase1_modes(net: NetworkTopology) -> NetworkTopology:
    """STDP on the three lower projections, readout projections static."""
    for name in ("input_feat", "feat_inhib", "inhib_feat"):
        net.projections[name].plasticity = StdpParams()
    freeze(net.projections["feat_readout"])
    freeze(net.projections["readout_lateral"])
    return net


def set_phase2_modes(net: NetworkTopology) -> NetworkTopology:
    """Freeze the STDP projections; supervised rule on the readout wiring."""
    for name in ("input_feat", "feat_inhib", "inhib_feat"):
        freeze(net.projections[name])
    net.projections["feat_readout"].plasticity = ResumeParams()
    if net.config.train_readout_lateral:
        net.projections["readout_lateral"].plasticity = ResumeParams()
    else:
        freeze(net.projections["readout_lateral"])
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


def _teacher_record(net: NetworkTopology, label: int, sim: SimulationConfig,
                    enc: EncodingConfig) -> SpikeRecord:
    """Teacher spikes for the readout layer: the presented class's group gets
    the max-rate train, every other neuron stays silent."""
    train = teacher_train(sim.window, enc.target, sim.dt)
    times = [train if net.class_of[i] == label else np.empty(0)
             for i in range(net.readout_layer.size)]
    return SpikeRecord(times, sim.window)


def check_labels(net: NetworkTopology, dataset: Dataset) -> None:
    """Reject labels the readout has no class group for."""
    labels = dataset.labels()
    bad = np.flatnonzero(labels >= net.config.n_classes)
    if bad.size:
        raise ValueError(
            f"sample {bad[0]} has label {labels[bad[0]]}, but the network has "
            f"only {net.config.n_classes} classes")


def frozen_eval_net(net: NetworkTopology) -> NetworkTopology:
    frozen = net.copy()
    for pop in frozen.projections.values():
        freeze(pop)
    return frozen


def run_phase2(net: NetworkTopology, dataset: Dataset, sim: SimulationConfig,
               enc: EncodingConfig, out_dir: str | Path | None = None,
               start_presentation: int = 0) -> PhaseResult:
    """Supervised readout training against per-class teacher trains; each
    presentation is classified before its update (the epoch's train_accuracy).
    The frozen lower stages of each image are simulated once, and their
    raster replayed into the readout in every epoch."""
    check_labels(net, dataset)
    set_phase2_modes(net)
    rasters = _rasters_for(net, dataset, sim, enc)
    since = rasters.built, rasters.replayed
    p4 = net.projections["feat_readout"]
    p5 = net.projections["readout_lateral"]
    feat, readout = net.feature_layer, net.readout_layer

    def step(sample: ImageSample) -> bool:
        # frozen presentations ignore modes: classify() on a frozen copy agrees
        record = present_image(net, sample, sim, enc, plastic=False)
        teacher = _teacher_record(net, sample.label, sim, enc)
        actual = record.subset(readout.start, readout.stop)
        predicted, _, _ = _predict(net, actual.counts())
        pre = record.subset(feat.start, feat.stop)
        resume_update(p4, teacher, actual, pre, sim.window)
        if p5.mode == "resume":
            resume_update(p5, teacher, actual, actual, sim.window)
        return predicted == sample.label

    result = _run_epochs(net, dataset, sim, 2, sim.epochs_phase2, step, out_dir,
                         start_presentation, lambda order: rasters.samples(net, order))
    rasters.log("phase 2", since)
    return result


# -- classification and evaluation -------------------------------------------


def _predict(net: NetworkTopology, counts: np.ndarray) -> tuple[int, np.ndarray, bool]:
    """Winner-takes-all over the readout spike counts summed per class:
    (predicted class, class counts, tie), a tie going to the lowest index."""
    class_counts = np.bincount(net.class_of, weights=counts, minlength=net.config.n_classes)
    winners = np.flatnonzero(class_counts == class_counts.max())
    return int(winners[0]), class_counts, winners.size > 1


def _require_static(net: NetworkTopology) -> None:
    for pop in net.projections.values():
        if pop.mode != "static":
            raise ValueError(
                f"classification needs static projections, {pop.name} is {pop.mode}")


def _classified(net: NetworkTopology, counts: np.ndarray) -> ClassificationResult:
    predicted, class_counts, tie = _predict(net, counts)
    return ClassificationResult(predicted, class_counts, counts, tie)


def classify(net: NetworkTopology, img, sim: SimulationConfig,
             enc: EncodingConfig) -> ClassificationResult:
    """Winner-takes-all prediction; requires every projection frozen."""
    _require_static(net)
    record = present_image(net, img, sim, enc, plastic=False)
    return _classified(net, record.subset(net.readout_layer.start,
                                          net.readout_layer.stop).counts())


def _classify_all(net: NetworkTopology, dataset: Dataset, sim: SimulationConfig,
                  enc: EncodingConfig) -> list[ClassificationResult]:
    """classify() of every sample, the readout stage run CHUNK images at a
    time on the replayed lower-stage rasters."""
    rasters = _rasters_for(net, dataset, sim, enc)
    since = rasters.built, rasters.replayed
    top = _readout_stage(net)
    start = net.stages[top][0].start
    readout = net.readout_layer
    results = []
    for chunk in rasters.chunks(net, range(len(dataset))):
        zero = np.zeros((len(chunk), net.n_neurons - start))
        for raster in _simulate(net, sim, top, top + 1, zero, [r for _, r in chunk]):
            ids = raster.ids
            inside = ids[(ids >= readout.start) & (ids < readout.stop)] - readout.start
            results.append(_classified(net, np.bincount(inside, minlength=readout.size)))
    rasters.log("evaluation", since)
    return results


def evaluate(net: NetworkTopology, dataset: Dataset, sim: SimulationConfig,
             enc: EncodingConfig) -> EvaluationReport:
    """Accuracy over a dataset: overall, per class, and the class mean +- std."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate an empty dataset")
    _require_static(net)
    check_labels(net, dataset)
    results = _classify_all(net, dataset, sim, enc)
    labels = dataset.labels()
    predicted = np.array([r.predicted for r in results], dtype=np.int64)
    ties = sum(r.tie for r in results)
    correct = predicted == labels
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
        ties=ties,
    )


# -- initial readout weight search -------------------------------------------


def monte_carlo_weight_search(net: NetworkTopology, candidates: tuple[float, float],
                              trials: int, eval_subset: Dataset,
                              sim: SimulationConfig, enc: EncodingConfig,
                              seed: int = 0) -> SearchResult:
    """Sample feat_readout initial weights, score each by a short phase-2 run.

    Each trial copies the phase-1-trained network, sets every feat_readout
    weight to the candidate, trains one phase-2 epoch on eval_subset, and
    scores accuracy on eval_subset with frozen weights. Ties pick the smaller
    weight. Deterministic for a given seed. The trials differ only in
    feat_readout, so the lower stages run once per image for all of them.
    """
    lo, hi = candidates
    if not (np.isfinite(lo) and np.isfinite(hi) and 0.0 <= lo <= hi):
        raise ValueError(f"bad candidate range ({lo}, {hi})")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len(eval_subset) == 0:
        raise ValueError("eval_subset must not be empty")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(lo, hi, trials)
    sim_one = replace(sim, epochs_phase2=1)
    subset = _Rasters(eval_subset, sim, enc).shared(net)
    results: list[Trial] = []
    for i, w in enumerate(weights):
        candidate = net.copy()
        candidate.projections["feat_readout"].weight = w
        run_phase2(candidate, subset, sim_one, enc, out_dir=None)
        report = evaluate(frozen_eval_net(candidate), subset, sim, enc)
        results.append(Trial(weight=float(w), accuracy=report.overall))
        logger.info("weight search trial %d/%d: w=%.3f acc=%.4f",
                    i + 1, trials, w, report.overall)
    subset.rasters.log("weight search")
    best_acc = max(t.accuracy for t in results)
    best_weight = min(t.weight for t in results if t.accuracy == best_acc)
    return SearchResult(best_weight=best_weight, trials=results)
