"""Network construction: layer sizes, projection counts, wiring rules,
weight initialization bands, and the structural fingerprint."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from spikesim import NetworkConfig, NeuronParams, SynapsePopulation, build_network
from spikesim.topology import PROJECTION_ORDER, _wire, teacher_train


def test_default_layer_sizes_and_projection_counts():
    net = build_network(NetworkConfig())
    assert net.input_layer.size == 1024
    assert net.feature_layer.size == 256
    assert net.inhib_layer.size == 256
    assert net.readout_layer.size == 100
    n = {name: net.projections[name].weight.size for name in PROJECTION_ORDER}
    assert n["input_feat"] == 1024 * 256 == 262_144
    assert n["feat_inhib"] == 256
    assert n["inhib_feat"] == 256 * 255 == 65_280
    assert n["feat_readout"] == 256 * 100
    assert n["readout_lateral"] == 100 * 90 == 9_000


def test_projection_order_is_stable():
    assert PROJECTION_ORDER == ("input_feat", "feat_inhib", "inhib_feat",
                                "feat_readout", "readout_lateral")
    net = build_network(NetworkConfig(rows=4, cols=4, n_classes=2,
                                      neurons_per_class=2))
    assert [p.name for p in net.ordered_projections()] == list(PROJECTION_ORDER)


def pairs(rule, n_pre, n_post, cfg=None):
    """A rule's connections, in the pre-major order of its mask's True cells."""
    return np.nonzero(_wire(rule, n_pre, n_post, cfg))


def test_wire_rules():
    pre, post = pairs("all_to_all", 3, 2)
    assert sorted(zip(pre.tolist(), post.tolist())) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    pre, post = pairs("one_to_one", 4, 4)
    assert np.array_equal(pre, post) and pre.size == 4
    pre, post = pairs("one_to_all_except_partner", 3, 3)
    assert set(zip(pre.tolist(), post.tolist())) == {
        (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}
    for rule in ("one_to_one", "one_to_all_except_partner"):
        with pytest.raises(ValueError, match="needs equal sizes"):
            _wire(rule, 3, 4)


def reference_pairs(rule, n_pre, n_post, per_class=None):
    """The index constructions the rule table replaced."""
    if rule == "all_to_all":
        return np.repeat(np.arange(n_pre), n_post), np.tile(np.arange(n_post), n_pre)
    if rule == "one_to_one":
        return np.arange(n_pre), np.arange(n_post)
    if rule == "partitioned":
        pre = np.arange(n_pre)
        return pre, pre // (n_pre // n_post)
    pre, post = np.meshgrid(np.arange(n_pre), np.arange(n_post), indexing="ij")
    keep = pre != post if rule == "one_to_all_except_partner" else (
        pre // per_class != post // per_class)
    return pre[keep], post[keep]


def same_order(got, want):
    return all(g.dtype == np.int64 and np.array_equal(g, w) for g, w in zip(got, want))


def test_connection_order_is_the_reference_order():
    # the connection order is the checkpoint layout: every rule lists its
    # pairs in exactly the order of the construction it replaced
    rng = np.random.default_rng(19)
    for _ in range(40):
        n_pre, n_post, n = (int(k) for k in rng.integers(1, 40, size=3))
        assert same_order(pairs("all_to_all", n_pre, n_post),
                          reference_pairs("all_to_all", n_pre, n_post))
        for rule in ("one_to_one", "one_to_all_except_partner"):
            assert same_order(pairs(rule, n, n), reference_pairs(rule, n, n))
        # the readout's rules read the config: |feature| = |readout| * part
        n_classes, npc, part = (int(k) for k in rng.integers(1, 6, size=3))
        n_read = n_classes * npc
        for partitioned in (False, True):
            cfg = NetworkConfig(
                rows=2, cols=2 * n_read * part, n_classes=n_classes, neurons_per_class=npc,
                feat_readout_partitioned=partitioned)
            assert same_order(pairs("cross_class", n_read, n_read, cfg),
                              reference_pairs("cross_class", n_read, n_read, npc))
            rule = "partitioned" if partitioned else "all_to_all"
            assert same_order(pairs("partitionable", n_read * part, n_read, cfg),
                              reference_pairs(rule, n_read * part, n_read))


def test_random_config_sweep():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n_classes = int(rng.integers(2, 6))
        npc = int(rng.integers(1, 5))
        # pick a grid whose pixel count is divisible by 4 so the 0.25
        # feature fraction lands on an integer
        rows = int(rng.integers(2, 9)) * 2
        cols = int(rng.integers(2, 9)) * 2
        cfg = NetworkConfig(rows=rows, cols=cols, n_classes=n_classes,
                            neurons_per_class=npc, seed=int(rng.integers(1000)))
        net = build_network(cfg)
        n_in = rows * cols
        n_feat = n_in // 4
        n_read = n_classes * npc
        assert net.input_layer.size == n_in
        assert net.feature_layer.size == n_feat == net.inhib_layer.size
        assert net.readout_layer.size == n_read

        p1 = net.projections["input_feat"]
        assert p1.weight.size == n_in * n_feat
        p2 = net.projections["feat_inhib"]
        assert np.array_equal(p2.pre_index, p2.post_index)
        p3 = net.projections["inhib_feat"]
        assert p3.weight.size == n_feat * (n_feat - 1)
        assert not np.any(p3.pre_index == p3.post_index), "partner excluded"
        p5 = net.projections["readout_lateral"]
        class_of = net.class_of
        assert p5.weight.size == n_read * (n_read - npc)
        assert np.all(class_of[p5.pre_index] != class_of[p5.post_index])

        # initialization bands: jittered projections stay within +-10%
        assert np.all(p1.weight >= 600.0 * 0.9) and np.all(p1.weight <= 600.0 * 1.1)
        assert np.all(p2.weight >= 490.84 * 0.9) and np.all(p2.weight <= 490.84 * 1.1)
        assert np.all(p3.weight >= -100.0 * 1.1) and np.all(p3.weight <= -100.0 * 0.9)
        assert np.all(net.projections["feat_readout"].weight == 241.0)
        assert np.all(p5.weight == -120.0)

        # signs and index ranges
        for name in PROJECTION_ORDER:
            p = net.projections[name]
            assert p.pre_index.min() >= 0 and p.pre_index.max() < p.n_pre
            assert p.post_index.min() >= 0 and p.post_index.max() < p.n_post
            if p.sign == "excitatory":
                assert np.all(p.weight >= 0.0)
            else:
                assert np.all(p.weight <= 0.0)


def test_build_is_seed_deterministic():
    a = build_network(NetworkConfig(rows=4, cols=4, n_classes=2,
                                    neurons_per_class=2, seed=3))
    b = build_network(NetworkConfig(rows=4, cols=4, n_classes=2,
                                    neurons_per_class=2, seed=3))
    c = build_network(NetworkConfig(rows=4, cols=4, n_classes=2,
                                    neurons_per_class=2, seed=4))
    assert np.array_equal(a.projections["input_feat"].weight,
                          b.projections["input_feat"].weight)
    assert not np.array_equal(a.projections["input_feat"].weight,
                              c.projections["input_feat"].weight)


def test_partitioned_readout_projection():
    cfg = NetworkConfig(rows=4, cols=4, n_classes=2, neurons_per_class=2,
                        feat_readout_partitioned=True)
    net = build_network(cfg)
    p4 = net.projections["feat_readout"]
    assert p4.weight.size == net.feature_layer.size
    # each feature neuron projects to exactly one readout neuron
    assert np.array_equal(p4.pre_index, np.arange(net.feature_layer.size))


def test_feature_fraction_must_divide():
    with pytest.raises(ValueError):
        build_network(NetworkConfig(rows=3, cols=3, n_classes=2,
                                    neurons_per_class=1))


def test_fingerprint_covers_structure_only():
    base = NetworkConfig(rows=4, cols=4, n_classes=2, neurons_per_class=2)
    same = NetworkConfig(rows=4, cols=4, n_classes=2, neurons_per_class=2,
                         seed=99, w_feat_readout=188.1, weight_jitter=0.05)
    other = NetworkConfig(rows=4, cols=4, n_classes=2, neurons_per_class=3)
    assert base.fingerprint() == same.fingerprint()
    assert base.fingerprint() != other.fingerprint()


# another valid value for every NetworkConfig field of a 4x4 net
OTHER_VALUE = {
    "rows": 8, "cols": 8, "n_classes": 3, "neurons_per_class": 3,
    "feature_fraction": 0.5, "seed": 1, "w_input_feat": 500.0, "w_feat_inhib": 400.0,
    "w_inhib_feat": -50.0, "w_feat_readout": 200.0, "w_readout_lateral": -60.0,
    "weight_jitter": 0.2, "feat_readout_partitioned": True, "train_readout_lateral": False,
}


def test_fingerprint_changes_exactly_with_the_structure():
    # a new field needs a value here, and so a verdict on the fingerprint
    assert set(OTHER_VALUE) == {f.name for f in fields(NetworkConfig)}
    base = NetworkConfig(rows=4, cols=4, n_classes=2, neurons_per_class=2)

    def structure(cfg):
        net = build_network(cfg)
        return ([layer.size for layer in net.layers],
                [(p.pre_index.tolist(), p.post_index.tolist())
                 for p in net.ordered_projections()])

    for name, value in OTHER_VALUE.items():
        other = replace(base, **{name: value})
        assert getattr(other, name) != getattr(base, name)
        changed = structure(other) != structure(base)
        assert (other.fingerprint() != base.fingerprint()) == changed, name


def test_class_of_groups_contiguous():
    net = build_network(NetworkConfig(rows=4, cols=4, n_classes=3,
                                      neurons_per_class=2))
    assert net.class_of.tolist() == [0, 0, 1, 1, 2, 2]


def test_teacher_train_spacing():
    t = teacher_train(100.0, 10, 0.1)
    assert t.size == 10
    assert np.allclose(t, np.arange(10) * 10.0 + 5.0)
    assert np.all(t < 100.0) and np.all(t >= 0.0)
    # snapped to the dt grid
    assert np.allclose(np.round(t / 0.1) * 0.1, t)
    one = teacher_train(100.0, 1, 0.1)
    assert one.size == 1 and one[0] == pytest.approx(50.0)
    with pytest.raises(ValueError):
        teacher_train(100.0, 0, 0.1)


def test_teacher_train_refuses_colliding_snapped_times():
    # 1,000 spikes in 100 ms at dt = 0.1: the (i + 0.5) * 0.1 ms times are
    # grid half-points, rounding sends ties to even, and only 578 stay distinct
    with pytest.raises(ValueError, match=r"teacher rate 1000/100.0 ms.*collide.*dt=0.1"):
        teacher_train(100.0, 1000, 0.1)
    # 999 spikes snap to distinct times, the same ones as before the check
    t = teacher_train(100.0, 999, 0.1)
    times = (np.arange(999) + 0.5) * (100.0 / 999)
    assert np.array_equal(t, np.minimum(np.round(times / 0.1) * 0.1, 100.0 - 0.1))
    assert t.size == 999 and (np.diff(t) > 0.0).all()


def test_wiring_table_names_each_projections_layers():
    net = build_network(NetworkConfig(rows=4, cols=4, n_classes=2, neurons_per_class=2))
    expected = {"input_feat": ("input", "feature"), "feat_inhib": ("feature", "inhib"),
                "inhib_feat": ("inhib", "feature"), "feat_readout": ("feature", "readout"),
                "readout_lateral": ("readout", "readout")}
    assert {name: (pre.name, post.name) for name, (pre, post) in net.wiring.items()} == expected
    for name, (pre, post) in net.wiring.items():
        pop = net.projections[name]
        assert (pop.n_pre, pop.n_post) == (pre.size, post.size)
    copy = net.copy()
    assert copy.wiring == net.wiring
    assert copy.stages == net.stages
    assert copy.lower_projections == net.lower_projections == (
        "input_feat", "feat_inhib", "inhib_feat")


def test_copy_owns_its_weights_and_shares_read_only_connections():
    net = build_network(NetworkConfig(rows=4, cols=4, n_classes=2, neurons_per_class=2))
    twin = net.copy()
    for name, pop in net.projections.items():
        other = twin.projections[name]
        assert other.connected is pop.connected
        assert not pop.connected.flags.writeable
        assert other.W is not pop.W
    before = net.projections["input_feat"].weight
    twin.projections["input_feat"].weight = 1.0
    assert np.array_equal(net.projections["input_feat"].weight, before)
    # the projection keeps its own copy of the caller's mask
    connected = np.eye(2, dtype=bool)
    pop = SynapsePopulation("p", connected, np.ones(2), "excitatory")
    connected[0, 1] = True
    assert pop.n_connections == 2 and not pop.connected[0, 1]


def test_a_network_stores_its_weight_matrices_and_masks_and_nothing_per_connection():
    # at 32x32 a per-connection int64 array of input_feat alone is 2 MiB
    build_network(NetworkConfig(rows=4, cols=4))    # lazy imports, untraced
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        net = build_network(NetworkConfig())
        built = tracemalloc.get_traced_memory()[0]
        twin = net.copy()
        copied = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    pops = net.projections.values()
    w_bytes = sum(p.W.nbytes for p in pops)
    mask_bytes = sum(p.connected.nbytes + (p._off.nbytes if p._off is not None else 0)
                     for p in pops)
    assert built - start <= w_bytes + mask_bytes + 64 * 1024
    assert copied - built <= w_bytes + 64 * 1024
    assert twin.projections["input_feat"].W is not net.projections["input_feat"].W
