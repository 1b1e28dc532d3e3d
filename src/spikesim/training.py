"""Simulation engine and the two-phase training protocol.

A presentation runs one image for `window` ms in steps of `dt`: the input
layer receives the encoded DC currents, spikes propagate through every
projection with a one-step synaptic delay, and (in phase 1) STDP events fire
online as spikes happen. Neuron state and the eligibility traces (one per
neuron) live only inside a presentation, so presentations are independent
and checkpoints at presentation boundaries are exact resume points.

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

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataio import (Dataset, ImageSample, checkpoint_from_network, save_checkpoint,
                     write_atomic)
from .encoding import EncodingConfig, encode_image
from .neuron import new_state, step_neuron, deliver_spike
from .plasticity import (decay_traces, excitatory_resume, excitatory_stdp,
                         freeze, inhibitory_resume, inhibitory_stdp,
                         resume_update, stdp_on_post, stdp_on_pre)
from .records import SpikeRecord
from .topology import NetworkTopology, teacher_train

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


def _pixels_of(img) -> np.ndarray:
    return img.pixels if isinstance(img, ImageSample) else np.asarray(img, dtype=np.float64)


def present_image(net: NetworkTopology, img, sim: SimulationConfig,
                  enc: EncodingConfig, plastic: bool = False) -> SpikeRecord:
    """Run one presentation; returns the spike record over all neurons.

    With plastic=True the STDP projections update online; the supervised rule
    is a batch update owned by run_phase2 (it needs the label). Neuron state
    and traces are created on entry, so back-to-back calls are independent.
    """
    px = _pixels_of(img)
    cfg = net.config
    if px.shape != (cfg.rows, cfg.cols):
        raise ValueError(f"image shape {px.shape} != ({cfg.rows}, {cfg.cols})")
    params = net.params
    dt = sim.dt
    n = net.n_neurons

    # (projection, pre layer, post layer) in delivery order, and those that
    # learn by STDP in this presentation
    proj_info = [(pop, *net.wiring[pop.name]) for pop in net.ordered_projections()]
    learning = [info for info in proj_info if plastic and info[0].mode == "stdp"]
    taus = {pop.plasticity.tau_trace for pop, *_ in learning}
    if len(taus) > 1:
        raise ValueError("STDP projections must share one tau_trace, got " + ", ".join(
            f"{pop.name}={pop.plasticity.tau_trace}" for pop, *_ in learning))
    tau = taus.pop() if taus else None

    I_ext = np.zeros(n, dtype=np.float64)
    I_ext[net.input_layer.start:net.input_layer.stop] = encode_image(px, enc)

    state = new_state(n, params)
    # one eligibility trace per neuron; each layer's slice is a view into it
    trace = np.zeros(n, dtype=np.float64)
    layers = net.layers
    trace_of = {layer.name: trace[layer.start:layer.stop] for layer in layers}
    edges = np.array([layer.start for layer in layers] + [n])

    pend_ex = np.zeros(n, dtype=np.float64)
    pend_in = np.zeros(n, dtype=np.float64)
    events: list[tuple[int, np.ndarray]] = []

    for k in range(sim.n_steps):
        if pend_ex.any():
            deliver_spike(state, pend_ex, "excitatory", params)
            pend_ex.fill(0.0)
        if pend_in.any():
            deliver_spike(state, pend_in, "inhibitory", params)
            pend_in.fill(0.0)

        state, spiked = step_neuron(state, params, I_ext, dt, validate=(k == 0))
        if learning:
            decay_traces(trace, dt, tau)
        if not spiked.any():
            continue
        ids = np.flatnonzero(spiked)
        events.append((k, ids))
        cut = np.searchsorted(ids, edges)
        # spiking ids per layer, local to it (a name hashes faster than a Layer)
        local = {layer.name: ids[lo:hi] - layer.start
                 for layer, lo, hi in zip(layers, cut, cut[1:])}
        # pre events read the post traces before this step's spikes bump
        # them, post events the pre traces after: coincident pairs potentiate
        for pop, pre_layer, post_layer in learning:
            if local[pre_layer.name].size:
                stdp_on_pre(pop, local[pre_layer.name], trace_of[post_layer.name])
        if learning:
            trace[ids] += 1.0
        for pop, pre_layer, post_layer in learning:
            if local[post_layer.name].size:
                stdp_on_post(pop, local[post_layer.name], trace_of[pre_layer.name])
        for pop, pre_layer, post_layer in proj_info:
            pre_local = local[pre_layer.name]
            if pre_local.size:
                # queue deliveries for the next step (one-step delay), using
                # the weights as updated by this step's plasticity events
                pend = pend_ex if pop.sign == "excitatory" else pend_in
                pend[post_layer.start:post_layer.stop] += pop.summed_input(pre_local)

    return SpikeRecord.from_step_events(events, n, dt, sim.window)


# -- phase orchestration -----------------------------------------------------


def set_phase1_modes(net: NetworkTopology) -> NetworkTopology:
    """STDP on the three lower projections, readout projections static."""
    net.projections["input_feat"].plasticity = excitatory_stdp()
    net.projections["feat_inhib"].plasticity = excitatory_stdp()
    net.projections["inhib_feat"].plasticity = inhibitory_stdp()
    freeze(net.projections["feat_readout"])
    freeze(net.projections["readout_lateral"])
    return net


def set_phase2_modes(net: NetworkTopology) -> NetworkTopology:
    """Freeze the STDP projections; supervised rule on the readout wiring."""
    for name in ("input_feat", "feat_inhib", "inhib_feat"):
        freeze(net.projections[name])
    net.projections["feat_readout"].plasticity = excitatory_resume()
    if net.config.train_readout_lateral:
        net.projections["readout_lateral"].plasticity = inhibitory_resume()
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
                start_presentation: int, end_of_epoch=None) -> PhaseResult:
    """The epoch protocol shared by both phases.

    Runs `step(sample)` on every presentation past `start_presentation`,
    saves a checkpoint every `checkpoint_interval` presentations and a final
    one, and writes one JSONL record per epoch; `end_of_epoch(stats)` may add
    to that record before it is logged.
    """
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
        for idx in _epoch_order(len(dataset), epoch, sim):
            counter += 1
            if counter <= start_presentation:
                continue
            step(dataset[int(idx)])
            if counter % sim.checkpoint_interval == 0:
                save(counter, f"{counter:08d}")
        stats = {"event": "epoch", "phase": phase, "epoch": epoch + 1,
                 "presentations": counter, "weights": _weight_stats(net)}
        if end_of_epoch is not None:
            end_of_epoch(stats)
        epoch_stats.append(stats)
        logger.info("phase %d epoch %d/%d done (%d presentations)%s",
                    phase, epoch + 1, epochs, counter,
                    f" acc={stats['train_accuracy']:.3f}"
                    if "train_accuracy" in stats else "")
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
    return _run_epochs(
        net, dataset, sim, 1, sim.epochs_phase1,
        lambda sample: present_image(net, sample, sim, enc, plastic=True),
        out_dir, start_presentation)


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
               start_presentation: int = 0,
               eval_each_epoch: bool = True) -> PhaseResult:
    """Supervised readout training against per-class teacher trains."""
    check_labels(net, dataset)
    set_phase2_modes(net)
    p4 = net.projections["feat_readout"]
    p5 = net.projections["readout_lateral"]
    feat, readout = net.feature_layer, net.readout_layer

    def step(sample: ImageSample) -> None:
        record = present_image(net, sample, sim, enc, plastic=False)
        teacher = _teacher_record(net, sample.label, sim, enc)
        actual = record.subset(readout.start, readout.stop)
        pre = record.subset(feat.start, feat.stop)
        resume_update(p4, teacher, actual, pre, sim.window)
        if p5.mode == "resume":
            resume_update(p5, teacher, actual, actual, sim.window)

    def train_accuracy(stats: dict) -> None:
        report = evaluate(frozen_eval_net(net), dataset, sim, enc)
        stats["train_accuracy"] = report.overall

    return _run_epochs(net, dataset, sim, 2, sim.epochs_phase2, step, out_dir,
                       start_presentation,
                       train_accuracy if eval_each_epoch and len(dataset) else None)


# -- classification and evaluation -------------------------------------------


def classify(net: NetworkTopology, img, sim: SimulationConfig,
             enc: EncodingConfig) -> ClassificationResult:
    """Winner-takes-all prediction; requires every projection frozen."""
    for pop in net.projections.values():
        if pop.mode != "static":
            raise ValueError(
                f"classification needs static projections, {pop.name} is {pop.mode}")
    record = present_image(net, img, sim, enc, plastic=False)
    counts = record.subset(net.readout_layer.start, net.readout_layer.stop).counts()
    class_counts = np.bincount(net.class_of, weights=counts.astype(np.float64),
                               minlength=net.config.n_classes)
    best = class_counts.max()
    winners = np.flatnonzero(class_counts == best)
    return ClassificationResult(predicted=int(winners[0]),
                                class_counts=class_counts,
                                neuron_counts=counts,
                                tie=winners.size > 1)


def evaluate(net: NetworkTopology, dataset: Dataset, sim: SimulationConfig,
             enc: EncodingConfig) -> EvaluationReport:
    """Accuracy over a dataset: overall, per class, and the class mean +- std."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate an empty dataset")
    check_labels(net, dataset)
    results = [classify(net, sample, sim, enc) for sample in dataset]
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
    weight. Deterministic for a given seed.
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
    results: list[Trial] = []
    for i, w in enumerate(weights):
        candidate = net.copy()
        candidate.projections["feat_readout"].weight = w
        run_phase2(candidate, eval_subset, sim_one, enc, out_dir=None,
                   eval_each_epoch=False)
        report = evaluate(frozen_eval_net(candidate), eval_subset, sim, enc)
        results.append(Trial(weight=float(w), accuracy=report.overall))
        logger.info("weight search trial %d/%d: w=%.3f acc=%.4f",
                    i + 1, trials, w, report.overall)
    best_acc = max(t.accuracy for t in results)
    best_weight = min(t.weight for t in results if t.accuracy == best_acc)
    return SearchResult(best_weight=best_weight, trials=results)
