"""Training engine behavior: determinism, reset hygiene, phase separation,
checkpoint cadence and resume, atomic saves, classification, and the weight
search."""

import numpy as np
import pytest

from spikesim import (EncodingConfig, NetworkConfig, SimulationConfig, StdpParams,
                      build_network, classify, evaluate, load_checkpoint,
                      present_image, run_phase1, run_phase2)
from spikesim.dataio import apply_checkpoint, make_synthetic
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


def test_stdp_projections_must_share_tau_trace(tiny_net, sim, enc, tiny_ds):
    # one trace per neuron serves every STDP projection, so they share one
    # time constant
    set_phase1_modes(tiny_net)
    tiny_net.projections["feat_inhib"].plasticity = StdpParams(tau_trace=20.0)
    before = weights_of(tiny_net)
    with pytest.raises(ValueError, match=r"tau_trace.*feat_inhib=20\.0"):
        present_image(tiny_net, tiny_ds[0], sim, enc, plastic=True)
    assert same_weights(before, weights_of(tiny_net))
    # a frozen presentation reads no trace
    present_image(tiny_net, tiny_ds[0], sim, enc)


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
    run_phase2(net, tiny_ds, sim, enc, eval_each_epoch=False)
    after = weights_of(net)
    for k, w in lower.items():
        assert np.array_equal(after[k], w), f"{k} must stay frozen in phase 2"
    assert not np.array_equal(after["feat_readout"],
                              np.full_like(after["feat_readout"], 241.0))


def test_phase_modes():
    net = build_tiny()
    set_phase1_modes(net)
    modes = {n: net.projections[n].mode for n in PROJECTION_ORDER}
    assert modes["input_feat"] == modes["feat_inhib"] == modes["inhib_feat"] == "stdp"
    assert modes["feat_readout"] == "static"
    set_phase2_modes(net)
    modes = {n: net.projections[n].mode for n in PROJECTION_ORDER}
    assert modes["input_feat"] == modes["feat_inhib"] == modes["inhib_feat"] == "static"
    assert modes["feat_readout"] == "resume"


def test_checkpoint_cadence_and_final(tmp_path, enc, tiny_ds):
    sim = SimulationConfig(seed=5, epochs_phase1=2, checkpoint_interval=4)
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
    sim = SimulationConfig(seed=5, epochs_phase1=2, checkpoint_interval=5)
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
    sim = SimulationConfig(seed=5, epochs_phase1=1, epochs_phase2=2,
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


def test_epoch_shuffle_is_stateless(enc, tiny_ds):
    # same shuffle seed -> same epoch orders -> identical training
    sim = SimulationConfig(seed=5, epochs_phase1=2, shuffle_seed=123)
    a, b = build_tiny(), build_tiny()
    run_phase1(a, tiny_ds, sim, enc)
    run_phase1(b, tiny_ds, sim, enc)
    assert same_weights(weights_of(a), weights_of(b))


# -- classification and evaluation ---------------------------------------------------


def trained_tiny(sim, enc, ds):
    net = build_tiny()
    run_phase1(net, ds, sim, enc)
    run_phase2(net, ds, sim, enc, eval_each_epoch=False)
    return frozen_eval_net(net)


def test_classify_requires_frozen(tiny_net, sim, enc, tiny_ds):
    set_phase1_modes(tiny_net)
    with pytest.raises(ValueError):
        classify(tiny_net, tiny_ds[0], sim, enc)


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
    sim = SimulationConfig(seed=5, epochs_phase1=1, checkpoint_interval=100)
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
