"""Training engine behavior: determinism, reset hygiene, phase separation,
checkpoint cadence and resume, atomic saves, classification, the weight
search, and the frozen lower stage replayed from its rasters."""

from dataclasses import replace

import re

import numpy as np
import pytest

from spikesim import (Dataset, EncodingConfig, ImageSample, NetworkConfig,
                      SimulationConfig, SpikeRecord, build_network, classify,
                      deliver_spike, encode_image, evaluate, load_checkpoint,
                      new_state, present_image, run_phase1, run_phase2,
                      step_neuron)
from spikesim import training
from spikesim.cli import main
from spikesim.dataio import apply_checkpoint, make_synthetic
from spikesim.neuron import StepKernel
from spikesim.plasticity import decay_traces, stdp_on_post, stdp_on_pre
from spikesim.topology import PROJECTION_ORDER
from spikesim.training import (frozen_eval_net, monte_carlo_weight_search,
                               set_phase1_modes, set_phase2_modes)

from conftest import I_K_DEFAULT, fail_writes


@pytest.fixture
def tiny_ds():
    return make_synthetic(2, 4, 4, samples_per_class=3, noise=0.03, seed=11)


def build_tiny(seed=5):
    return build_network(NetworkConfig(rows=4, cols=4, n_classes=2,
                                       neurons_per_class=2, seed=seed))


def weights_of(net):
    return {n: net.projections[n].weight.copy() for n in PROJECTION_ORDER}


def same_weights(a, b):
    return all(np.array_equal(a[k], b[k]) for k in a)


# -- presentation engine ----------------------------------------------------------


def test_presentation_is_deterministic(tiny_net, sim, enc, tiny_ds):
    a = present_image(tiny_net, tiny_ds[0], sim, enc)
    b = present_image(tiny_net, tiny_ds[0], sim, enc)
    assert a == b


def test_reset_hygiene_between_presentations(tiny_net, sim, enc, tiny_ds):
    # interleaving other images must not leak state into a later record
    ref = present_image(tiny_net, tiny_ds[0], sim, enc)
    present_image(tiny_net, tiny_ds[1], sim, enc)
    present_image(tiny_net, tiny_ds[2], sim, enc)
    again = present_image(tiny_net, tiny_ds[0], sim, enc)
    assert ref == again


def test_plastic_presentation_changes_only_stdp_weights(tiny_net, sim, enc, tiny_ds):
    set_phase1_modes(tiny_net)
    before = weights_of(tiny_net)
    present_image(tiny_net, tiny_ds[0], sim, enc, plastic=True)
    after = weights_of(tiny_net)
    assert not np.array_equal(before["input_feat"], after["input_feat"])
    assert np.array_equal(before["feat_readout"], after["feat_readout"])
    assert np.array_equal(before["readout_lateral"], after["readout_lateral"])


def reference_presentation(net, img, sim, enc, plastic):
    """The presentation engine written out from the public primitives: a
    step's deliveries are per-connection sums (`bincount` over the spiking
    connections), queued and injected at the start of the next step; the
    STDP events follow the documented order (decay, pre events, trace bump,
    post events)."""
    params, n = net.params, net.n_neurons
    I_ext = np.zeros(n)
    I_ext[net.input_layer.start:net.input_layer.stop] = encode_image(img, enc)
    state = new_state(n, params)
    trace = np.zeros(n)
    wired = [(pop, *net.wiring[pop.name]) for pop in net.ordered_projections()]
    stdp = [w for w in wired if plastic and w[0].mode == "stdp"]
    queued: dict[str, np.ndarray] = {}
    events = []
    for k in range(sim.n_steps):
        for sign, drive in queued.items():
            deliver_spike(state, drive, sign, params)
        queued = {}
        state, spiked = step_neuron(state, params, I_ext, sim.dt)
        if stdp:
            decay_traces(trace, sim.dt)
        if not spiked.any():
            continue
        events.append((k, np.flatnonzero(spiked)))
        fired = {layer.name: np.flatnonzero(spiked[layer.start:layer.stop])
                 for layer in net.layers}
        for pop, pre, post in stdp:
            if fired[pre.name].size:
                stdp_on_pre(pop, fired[pre.name], trace[post.start:post.stop])
        if stdp:
            trace[spiked] += 1.0
        for pop, pre, post in stdp:
            if fired[post.name].size:
                stdp_on_post(pop, fired[post.name], trace[pre.start:pre.stop])
        for pop, pre, post in wired:
            on = spiked[pre.start:pre.stop][pop.pre_index]
            drive = queued.setdefault(pop.sign, np.zeros(n))
            drive[post.start:post.stop] += np.bincount(
                pop.post_index[on], weights=pop.weight[on], minlength=pop.n_post)
    return SpikeRecord.from_step_events(events, n, sim.dt, sim.window)


@pytest.mark.parametrize("seed", [5, 6, 7])
@pytest.mark.parametrize("plastic", [False, True])
def test_presentation_matches_reference_loop(sim, enc, seed, plastic):
    # w_feat_inhib = 800 makes the inhib layer fire, so every projection
    # delivers; the one-step delay shows in every later spike
    net = build_network(NetworkConfig(rows=4, cols=4, n_classes=2,
                                      neurons_per_class=2, seed=seed,
                                      w_feat_inhib=800.0))
    if plastic:
        set_phase1_modes(net)
    img = np.random.default_rng(seed).uniform(0.3, 1.0, size=(4, 4))
    ref_net = net.copy()
    record = present_image(net, img, sim, enc, plastic=plastic)
    assert record == reference_presentation(ref_net, img, sim, enc, plastic)
    assert all(record.subset(layer.start, layer.stop).counts().any()
               for layer in net.layers)
    assert same_weights(weights_of(net), weights_of(ref_net))
    changed = not same_weights(weights_of(net), weights_of(build_network(net.config)))
    assert changed == plastic


def test_image_shape_must_match_network(tiny_net, sim, enc):
    bad = make_synthetic(2, 8, 8, 1, noise=0.0, seed=1)[0]
    with pytest.raises(ValueError):
        present_image(tiny_net, bad, sim, enc)


# -- phase runners ------------------------------------------------------------------


def test_phase1_deterministic(sim, enc, tiny_ds):
    a, b = build_tiny(), build_tiny()
    run_phase1(a, tiny_ds, sim, enc)
    run_phase1(b, tiny_ds, sim, enc)
    assert same_weights(weights_of(a), weights_of(b))


def test_phase2_freezes_lower_projections(sim, enc, tiny_ds):
    net = build_tiny()
    run_phase1(net, tiny_ds, sim, enc)
    lower = {k: weights_of(net)[k] for k in ("input_feat", "feat_inhib", "inhib_feat")}
    run_phase2(net, tiny_ds, sim, enc)
    after = weights_of(net)
    for k, w in lower.items():
        assert np.array_equal(after[k], w), f"{k} must stay frozen in phase 2"
    assert not np.array_equal(after["feat_readout"],
                              np.full_like(after["feat_readout"], 241.0))


def test_a_projection_without_connections_trains_saves_and_evaluates(tmp_path, sim, enc,
                                                                      capsys):
    # with one class readout_lateral, which pairs readout neurons of
    # different classes, has no connection
    ds = make_synthetic(1, 4, 4, samples_per_class=2, noise=0.03, seed=11)
    net = build_network(NetworkConfig(rows=4, cols=4, n_classes=1,
                                      neurons_per_class=2, seed=5))
    assert net.config.train_readout_lateral
    assert net.projections["readout_lateral"].n_connections == 0
    run_phase1(net, ds, sim, enc)
    run_phase2(net, ds, sim, enc, out_dir=tmp_path)
    lateral = net.projections["readout_lateral"]
    assert lateral.mode == "resume" and lateral.weight.size == 0 and not lateral.W.any()
    final = tmp_path / "ckpt_phase2_final.bin"
    restored = build_network(replace(net.config, seed=9))
    apply_checkpoint(restored, load_checkpoint(final))
    assert same_weights(weights_of(restored), weights_of(net))
    assert evaluate(restored, ds, sim, enc).overall == 1.0
    capsys.readouterr()
    assert main(["inspect", "--checkpoint", str(final)]) == 0
    assert re.search(r"^readout_lateral\s*: empty$", capsys.readouterr().out, re.M)


def test_phase_modes():
    net = build_tiny()
    set_phase1_modes(net)
    assert net.lower_projections == ("input_feat", "feat_inhib", "inhib_feat")
    modes = {n: net.projections[n].mode for n in PROJECTION_ORDER}
    assert modes["input_feat"] == modes["feat_inhib"] == modes["inhib_feat"] == "stdp"
    assert modes["feat_readout"] == modes["readout_lateral"] == "static"
    set_phase2_modes(net)
    modes = {n: net.projections[n].mode for n in PROJECTION_ORDER}
    assert modes["input_feat"] == modes["feat_inhib"] == modes["inhib_feat"] == "static"
    assert modes["feat_readout"] == modes["readout_lateral"] == "resume"
    fixed = build_network(replace(net.config, train_readout_lateral=False))
    set_phase2_modes(set_phase1_modes(fixed))
    assert fixed.projections["feat_readout"].mode == "resume"
    assert fixed.projections["readout_lateral"].mode == "static"


def test_checkpoint_cadence_and_final(tmp_path, enc, tiny_ds):
    sim = SimulationConfig(epochs_phase1=2, checkpoint_interval=4)
    net = build_tiny()
    res = run_phase1(net, tiny_ds, sim, enc, out_dir=tmp_path)
    names = sorted(p.name for p in res.checkpoints)
    # 12 presentations at interval 4 -> 3 periodic + final
    assert names == ["ckpt_phase1_00000004.bin", "ckpt_phase1_00000008.bin",
                     "ckpt_phase1_00000012.bin", "ckpt_phase1_final.bin"]
    final = load_checkpoint(tmp_path / "ckpt_phase1_final.bin")
    assert final.presentations == 12
    assert (tmp_path / "phase1_log.jsonl").exists()


def test_resume_equals_uninterrupted(tmp_path, enc, tiny_ds):
    sim = SimulationConfig(epochs_phase1=2, checkpoint_interval=5)
    straight = build_tiny()
    run_phase1(straight, tiny_ds, sim, enc)

    first = build_tiny()
    run_phase1(first, tiny_ds, sim, enc, out_dir=tmp_path)
    ckpt = load_checkpoint(tmp_path / "ckpt_phase1_00000005.bin")
    resumed = build_tiny()
    apply_checkpoint(resumed, ckpt)
    run_phase1(resumed, tiny_ds, sim, enc,
               start_presentation=ckpt.presentations)
    assert same_weights(weights_of(straight), weights_of(resumed))


def test_phase2_resume_equals_uninterrupted(tmp_path, enc, tiny_ds):
    sim = SimulationConfig(epochs_phase1=1, epochs_phase2=2,
                           checkpoint_interval=5)
    straight = build_tiny()
    run_phase1(straight, tiny_ds, sim, enc)
    run_phase2(straight, tiny_ds, sim, enc, out_dir=tmp_path / "a")

    ckpt = load_checkpoint(tmp_path / "a" / "ckpt_phase2_00000005.bin")
    resumed = build_tiny()
    apply_checkpoint(resumed, ckpt)
    run_phase2(resumed, tiny_ds, sim, enc, out_dir=tmp_path / "b",
               start_presentation=ckpt.presentations)
    assert same_weights(weights_of(straight), weights_of(resumed))
    for name in ("ckpt_phase2_00000010.bin", "ckpt_phase2_final.bin"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())
    assert not (tmp_path / "b" / "ckpt_phase2_00000005.bin").exists()


def test_phase2_presents_each_sample_once_per_epoch(monkeypatch, enc, tiny_ds):
    # the training presentations score themselves: no evaluation pass
    sim = SimulationConfig(epochs_phase1=1, epochs_phase2=2)
    net = build_tiny()
    run_phase1(net, tiny_ds, sim, enc)
    calls = {"present_image": 0, "evaluate": 0}

    def counted(name):
        real = getattr(training, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(training, name, counted(name))
    res = run_phase2(net, tiny_ds, sim, enc)
    assert calls == {"present_image": len(tiny_ds) * 2, "evaluate": 0}
    assert all("train_accuracy" in s for s in res.epoch_stats)

    # a resume logs accuracy only for the presentations it runs
    calls.update(present_image=0)
    res = run_phase2(net, tiny_ds, sim, enc, start_presentation=len(tiny_ds))
    assert calls == {"present_image": len(tiny_ds), "evaluate": 0}
    assert ["train_accuracy" in s for s in res.epoch_stats] == [False, True]


def banded_ds():
    """Bright column bands (left half class 0, right half class 1) on a dim
    background: unlike the sparse synthetic templates, they make the tiny
    network's readout fire."""
    rng = np.random.default_rng(1)
    samples = []
    for i in range(6):
        px = rng.uniform(0.0, 0.3, (4, 4))
        px[:, 2 * (i % 2):2 * (i % 2) + 2] = rng.uniform(0.7, 1.0, (4, 2))
        samples.append(ImageSample(pixels=px, label=i % 2, source_id=f"band:{i}"))
    return Dataset(samples=samples, n_classes=2)


def test_phase2_train_accuracy_equals_classify_replay(enc):
    # each presentation is scored as classify() scores the weights it meets
    ds = banded_ds()
    sim = SimulationConfig(epochs_phase1=1, epochs_phase2=3)
    net = build_tiny()
    run_phase1(net, ds, sim, enc)
    replay = net.copy()
    logged = [s["train_accuracy"] for s in run_phase2(net, ds, sim, enc).epoch_stats]

    one = replace(sim, epochs_phase2=1)
    expected = []
    for _ in range(sim.epochs_phase2):
        hits = []
        for s in ds:
            hits.append(classify(frozen_eval_net(replay), s, sim, enc).predicted == s.label)
            run_phase2(replay, Dataset(samples=[s], n_classes=2), one, enc)
        expected.append(float(np.mean(hits)))
    assert logged == expected
    assert len(set(expected)) > 1, "the accuracy must move for the check to bite"
    assert same_weights(weights_of(net), weights_of(replay))


def test_epoch_shuffle_is_stateless(enc, tiny_ds):
    # same shuffle seed -> same epoch orders -> identical training
    sim = SimulationConfig(epochs_phase1=2, shuffle_seed=123)
    a, b = build_tiny(), build_tiny()
    run_phase1(a, tiny_ds, sim, enc)
    run_phase1(b, tiny_ds, sim, enc)
    assert same_weights(weights_of(a), weights_of(b))


# -- classification and evaluation ---------------------------------------------------


def trained_tiny(sim, enc, ds):
    net = build_tiny()
    run_phase1(net, ds, sim, enc)
    run_phase2(net, ds, sim, enc)
    return frozen_eval_net(net)


def test_classify_reports_counts_and_tie(sim, enc, tiny_ds):
    net = trained_tiny(sim, enc, tiny_ds)
    res = classify(net, tiny_ds[0], sim, enc)
    assert res.class_counts.shape == (2,)
    assert res.neuron_counts.shape == (4,)
    assert res.predicted in (0, 1)
    assert res.class_counts.sum() == res.neuron_counts.sum()
    if res.class_counts[0] == res.class_counts[1]:
        assert res.tie and res.predicted == 0


def test_evaluate_report_shape(sim, enc, tiny_ds):
    net = trained_tiny(sim, enc, tiny_ds)
    rep = evaluate(net, tiny_ds, sim, enc)
    assert rep.per_class.shape == (2,)
    assert rep.n_per_class.tolist() == [3, 3]
    assert 0.0 <= rep.overall <= 1.0
    assert rep.mean_class == pytest.approx(rep.per_class.mean())
    assert rep.std_class == pytest.approx(rep.per_class.std())
    text = rep.render()
    assert "class_0" in text and "overall" in text and "+-" in text


def test_evaluate_empty_rejected(sim, enc, tiny_ds):
    from spikesim import Dataset
    net = trained_tiny(sim, enc, tiny_ds)
    with pytest.raises(ValueError):
        evaluate(net, Dataset(samples=[], n_classes=2), sim, enc)


def test_labels_beyond_the_readout_rejected(sim, enc):
    # three classes of images on a two-class network: no teacher for label 2
    ds = make_synthetic(3, 4, 4, samples_per_class=1, noise=0.0, seed=1)
    net = build_tiny()
    before = weights_of(net)
    with pytest.raises(ValueError, match="label 2"):
        run_phase2(net, ds, sim, enc)
    assert same_weights(before, weights_of(net))
    with pytest.raises(ValueError, match="label 2"):
        evaluate(frozen_eval_net(net), ds, sim, enc)


# -- Monte Carlo weight search ---------------------------------------------------------


def test_search_deterministic_and_ranked(sim, enc, tiny_ds):
    net = build_tiny()
    run_phase1(net, tiny_ds, sim, enc)
    a = monte_carlo_weight_search(net, (50.0, 400.0), 3, tiny_ds, sim, enc, seed=2)
    b = monte_carlo_weight_search(net, (50.0, 400.0), 3, tiny_ds, sim, enc, seed=2)
    assert a.best_weight == b.best_weight
    assert [t.weight for t in a.trials] == [t.weight for t in b.trials]
    best_acc = max(t.accuracy for t in a.trials)
    winners = [t.weight for t in a.trials if t.accuracy == best_acc]
    assert a.best_weight == min(winners), "ties resolve to the smaller weight"


def test_search_does_not_mutate_input_net(sim, enc, tiny_ds):
    net = build_tiny()
    run_phase1(net, tiny_ds, sim, enc)
    before = weights_of(net)
    monte_carlo_weight_search(net, (50.0, 400.0), 2, tiny_ds, sim, enc, seed=2)
    assert same_weights(before, weights_of(net))


def test_search_validates_arguments(sim, enc, tiny_ds):
    net = build_tiny()
    with pytest.raises(ValueError):
        monte_carlo_weight_search(net, (400.0, 50.0), 2, tiny_ds, sim, enc)
    with pytest.raises(ValueError):
        monte_carlo_weight_search(net, (50.0, 400.0), 0, tiny_ds, sim, enc)


def test_failed_save_keeps_previous_final_checkpoint(tmp_path, enc, tiny_ds, monkeypatch):
    sim = SimulationConfig(epochs_phase1=1, checkpoint_interval=100)
    run_phase1(build_tiny(), tiny_ds, sim, enc, out_dir=tmp_path)
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert "ckpt_phase1_final.bin" in files and "phase1_log.jsonl" in files

    fail_writes(monkeypatch)
    with pytest.raises(OSError):
        run_phase1(build_tiny(seed=6), tiny_ds, sim, enc, out_dir=tmp_path)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files
    final = load_checkpoint(tmp_path / "ckpt_phase1_final.bin")
    assert final.presentations == len(tiny_ds)


# -- frozen lower stage: rasters made once, replayed into the readout ----------------


def firing_net(seed):
    """A 4x4 net whose inhib layer fires (w_feat_inhib = 800), so every
    projection delivers."""
    return build_network(NetworkConfig(rows=4, cols=4, n_classes=2, neurons_per_class=2,
                                       seed=seed, w_feat_inhib=800.0))


def bright_ds(seed, n=7):
    rng = np.random.default_rng(seed)
    return Dataset(samples=[ImageSample(pixels=rng.uniform(0.3, 1.0, (4, 4)), label=i % 2,
                                        source_id=f"bright:{i}") for i in range(n)],
                   n_classes=2)


def test_declared_stages():
    net = build_tiny()
    assert [[layer.name for layer in stage] for stage in net.stages] == [
        ["input", "feature", "inhib"], ["readout"]]


def test_readout_feeding_an_earlier_stage_is_refused():
    from spikesim import topology
    table = {**topology.PROJECTIONS,
             "readout_feat": ("readout", "feature", "excitatory", "all_to_all")}
    with pytest.raises(ValueError, match="readout_feat"):
        topology.check_stages(topology.STAGES, table)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_replayed_presentation_equals_full_presentation(sim, enc, seed):
    # distinct readout weights, so that a replayed feature spike delivered
    # from the wrong neuron changes the readout
    net = firing_net(seed)
    net.projections["feat_readout"].weight = np.random.default_rng(seed).uniform(
        200.0, 400.0, net.projections["feat_readout"].n_connections)
    set_phase2_modes(net)
    ds = bright_ds(seed)
    replays = list(training._Rasters(net, ds, sim, enc).samples(range(len(ds))))
    for sample, replay in zip(ds, replays):
        full = present_image(net, sample, sim, enc)
        assert present_image(net, replay, sim, enc) == full
        assert all(full.subset(layer.start, layer.stop).counts().any() for layer in net.layers)


def same_result(a, b):
    return ((a.predicted, a.tie) == (b.predicted, b.tie)
            and np.array_equal(a.class_counts, b.class_counts)
            and np.array_equal(a.neuron_counts, b.neuron_counts))


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_batched_evaluate_equals_classify(monkeypatch, sim, enc, seed):
    # both are checked against the readout counts of the reference loop,
    # which shares no code with the engine
    monkeypatch.setattr(training, "CHUNK", 3)      # 9 images: chunks of 3, 3, 3
    net = frozen_eval_net(firing_net(seed))
    net.projections["feat_readout"].weight = np.random.default_rng(seed).uniform(
        100.0, 400.0, net.projections["feat_readout"].n_connections)
    # a silent image between two bright ones, and one bright pixel beside
    # bright images: the middle chunks hold rows that never spike, or barely,
    # next to rows that do
    dark = np.zeros((4, 4))
    lone = dark.copy()
    lone[1, 2] = 1.0
    samples = bright_ds(seed).samples
    samples[4:4] = [ImageSample(pixels=dark, label=0, source_id="dark")]
    samples[6:6] = [ImageSample(pixels=lone, label=1, source_id="lone")]
    ds = Dataset(samples=samples, n_classes=2)
    batched = training._classify_all(net, training._Rasters(net, ds, sim, enc))
    single = [classify(net, s, sim, enc) for s in ds]
    readout = net.readout_layer
    for a, b, s in zip(batched, single, ds, strict=True):
        counts = reference_presentation(net, s.pixels, sim, enc, False).subset(
            readout.start, readout.stop).counts()
        class_counts = np.bincount(net.class_of, weights=counts, minlength=2)
        winners = np.flatnonzero(class_counts == class_counts.max())
        assert np.array_equal(a.neuron_counts, counts)
        assert np.array_equal(a.class_counts, class_counts)
        assert (a.predicted, a.tie) == (winners[0], winners.size > 1)
        assert same_result(a, b)
    assert any(r.neuron_counts.any() for r in single), "the readout must fire"
    report = evaluate(net, ds, sim, enc)
    assert report.ties == sum(r.tie for r in single)
    hits = np.array([r.predicted for r in single]) == ds.labels()
    assert report.overall == hits.mean()


@pytest.mark.parametrize("set_modes", [set_phase1_modes, set_phase2_modes])
def test_classifying_needs_no_frozen_copy(sim, enc, set_modes):
    # classify and evaluate learn nothing in any mode: a net in either
    # phase's modes classifies as its frozen copy does and keeps its weights
    net = firing_net(4)
    net.projections["feat_readout"].weight = np.random.default_rng(4).uniform(
        100.0, 400.0, net.projections["feat_readout"].n_connections)
    set_modes(net)
    frozen = frozen_eval_net(net)
    ds = bright_ds(4)
    before = weights_of(net)
    results = [classify(net, s, sim, enc) for s in ds]
    # an image's pixels classify as its sample does
    assert all(same_result(a, classify(frozen, s.pixels, sim, enc)) for a, s in zip(results, ds))
    assert any(r.neuron_counts.any() for r in results), "the readout must fire"
    report, frozen_report = evaluate(net, ds, sim, enc), evaluate(frozen, ds, sim, enc)
    assert (report.render(), report.ties) == (frozen_report.render(), frozen_report.ties)
    assert same_weights(before, weights_of(net))
    assert any(pop.mode != "static" for pop in net.projections.values())


def test_phase2_without_kept_rasters_is_byte_identical(monkeypatch, tmp_path, enc):
    sim = SimulationConfig(epochs_phase2=3, checkpoint_interval=4, shuffle_seed=9)
    ds = bright_ds(3)
    run_phase2(firing_net(3), ds, sim, enc, out_dir=tmp_path / "kept")
    monkeypatch.setattr(training, "RASTER_BYTES", 0)
    run_phase2(firing_net(3), ds, sim, enc, out_dir=tmp_path / "remade")
    kept = {p.name: p.read_bytes() for p in (tmp_path / "kept").iterdir()}
    assert len(kept) == 7           # 21 presentations: 5 periodic, final, log
    assert kept == {p.name: p.read_bytes() for p in (tmp_path / "remade").iterdir()}


def count_steps(monkeypatch):
    """Record the state shape of every neuron step the engine's kernel takes."""
    calls = []
    real = StepKernel.__call__

    def counted(self):
        calls.append(self.state.V_m.shape)
        return real(self)
    monkeypatch.setattr(StepKernel, "__call__", counted)
    return calls


@pytest.mark.parametrize("E_L", [-70.0, -50.0])
def test_readout_starts_at_first_input_only_from_rest(monkeypatch, sim, enc, E_L):
    # with E_L >= omega (-51) a neuron at rest fires, so the readout stage
    # must run from step 0 however late its first input comes
    params = replace(build_tiny().params, E_L=E_L)
    net = build_network(firing_net(5).config, params)
    ds = bright_ds(5, n=2)
    replays = list(training._Rasters(net, ds, sim, enc).samples(range(2)))
    late = training.Raster(np.array([net.feature_layer.start], dtype=np.int32),
                           np.repeat(np.array([0, 1], dtype=np.int32), [101, sim.n_steps - 100]))
    replays.append(replace(replays[0], raster=late))
    calls = count_steps(monkeypatch)
    records = []
    for replay in replays:
        calls.clear()
        records.append(present_image(net, replay, sim, enc))
        assert calls[0] == (1, net.readout_layer.size)
    readout = records[-1].subset(net.readout_layer.start, net.readout_layer.stop)
    if E_L < params.omega:
        assert len(calls) == sim.n_steps - 100
    else:
        assert len(calls) == sim.n_steps
        assert all(t.size and t[0] == 0.0 for t in readout.times)
    for sample, record in zip(ds, records):
        assert record == present_image(net, sample, sim, enc)


def test_a_replayed_presentation_cannot_learn(monkeypatch, sim, enc):
    net = firing_net(3)
    replay = next(training._Rasters(net, bright_ds(3, n=1), sim, enc).samples([0]))
    set_phase1_modes(net)
    calls = count_steps(monkeypatch)
    with pytest.raises(ValueError, match="a replayed presentation cannot learn by STDP"):
        present_image(net, replay, sim, enc, plastic=True)
    assert calls == []


def test_colliding_teacher_times_are_refused_before_the_first_step(monkeypatch, sim):
    # 1,000 teacher spikes in 100 ms snap onto only 578 distinct 0.1 ms steps
    calls = count_steps(monkeypatch)
    with pytest.raises(ValueError, match="collide"):
        run_phase2(firing_net(3), bright_ds(3), sim, EncodingConfig(I_K=I_K_DEFAULT, target=1000))
    assert calls == []


def test_a_non_finite_weight_is_refused_before_the_first_step(monkeypatch, sim, enc):
    # the NaN sits on the row of an input neuron that never fires, so no
    # delivery sums it; the weights are checked once, before the loop
    net = build_tiny()
    set_phase1_modes(net)
    img = np.full((4, 4), 0.8)
    img[0, 0] = 0.0
    net.projections["input_feat"].W[0, 1] = np.nan
    calls = count_steps(monkeypatch)
    with pytest.raises(ValueError, match="input_feat: spike weight must be finite"):
        present_image(net, img, sim, enc, plastic=True)
    assert calls == []


def test_a_wrong_signed_weight_is_refused_before_the_readout_steps(monkeypatch, sim, enc):
    # one negative feat_readout weight: the readout stage refuses it before
    # its first step, not at the first step whose summed input comes out
    # negative
    net = frozen_eval_net(firing_net(3))
    pop = net.projections["feat_readout"]
    pop.W[pop.pre_index[0], pop.post_index[0]] = -1.0
    calls = count_steps(monkeypatch)
    with pytest.raises(ValueError, match="feat_readout: excitatory delivery with negative weight"):
        evaluate(net, bright_ds(3), sim, enc)
    # the lower stage ran, the readout stage did not take a step
    lower = net.stages[-1][0].start
    assert calls and all(shape[-1] == lower for shape in calls)


def test_each_frozen_call_logs_its_rasters(caplog, sim, enc):
    net = firing_net(7)
    ds = bright_ds(7)
    with caplog.at_level("INFO", logger="spikesim.training"):
        monte_carlo_weight_search(net, (100.0, 400.0), 3, ds, sim, enc, seed=1)
    lines = [r.getMessage() for r in caplog.records if "rasters built" in r.getMessage()]
    # one line per trial's phase 2 and evaluation, then the search's total:
    # the lower stage ran once per image for all 6 calls
    assert len(lines) == 7
    assert lines[0].startswith("phase 2: 7 lower-stage rasters built, 7 presentations")
    assert lines[1].startswith("evaluation: 0 lower-stage rasters built, 7 presentations")
    assert lines[-1].startswith("weight search: 7 lower-stage rasters built, "
                                "42 presentations replayed")


def test_each_search_trial_equals_the_trial_run_by_hand(sim, enc):
    # the search shares one raster set across its trials; each trial must
    # still equal one phase-2 epoch and an evaluation through the public
    # calls, on a fresh copy of the network and a plain dataset
    net = firing_net(5)
    ds = bright_ds(5, n=6)
    result = monte_carlo_weight_search(net, (50.0, 600.0), 5, ds, sim, enc, seed=5)
    one = replace(sim, epochs_phase2=1)
    for trial in result.trials:
        candidate = net.copy()
        candidate.projections["feat_readout"].weight = trial.weight
        run_phase2(candidate, ds, one, enc)
        assert evaluate(frozen_eval_net(candidate), ds, sim, enc).overall == trial.accuracy
    assert len({t.accuracy for t in result.trials}) > 1, "the trials must differ"
