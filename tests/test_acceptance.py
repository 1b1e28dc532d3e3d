"""Acceptance gate: one test per release criterion, named so that the
`pytest -v` listing reads as a pass/fail checklist.

Criteria (tolerances pinned):
  c1  neuron analytic oracle, 1e-9 mV over 100 ms at dt=0.1
  c2  encoding endpoints: p=1.0 -> exactly 10 spikes, p=0.0 -> 0, monotone
  c3  STDP trace updates equal the all-pairs double sum, 1e-9 pA, clipped;
      also inside one engine presentation, for every STDP connection
  c4  ReSuMe: exact zero on identical trains, closed-form pair to 1e-12, signs
  c5  topology counts for the default and 50 random configs
  c6  end-to-end toy run reaches >= 80% test accuracy in < 5 minutes
  c7  CIFAR-10 subset smoke test (needs SPIKESIM_CIFAR_DIR; skipped otherwise)
  c8  persistence and determinism: bit-exact checkpoints, resume equivalence
  c9  evaluation report shape: per-class rows and mean +- std across classes
"""

import math
import os
import time

import numpy as np
import pytest

from spikesim import (Dataset, EncodingConfig, NetworkConfig, NeuronParams,
                      ResumeParams, SimulationConfig, SpikeRecord, StdpParams,
                      SynapsePopulation, build_network, evaluate,
                      load_checkpoint, new_state, present_image, run_phase1,
                      run_phase2, save_checkpoint, step_neuron)
from spikesim.dataio import (apply_checkpoint, checkpoint_from_network,
                             load_cifar10, make_synthetic)
from spikesim.encoding import spikes_under_constant_current
from spikesim.plasticity import (TAU_TRACE, decay_traces, resume_update,
                                 stdp_on_pre, stdp_on_post)
from spikesim.training import (frozen_eval_net, monte_carlo_weight_search,
                               set_phase1_modes)

I_K_DEFAULT = 797.4  # calibrated drive: 10 spikes in 100 ms at dt=0.1
DT = 0.1
WINDOW = 100.0


def test_c1_neuron_analytic_oracle():
    params = NeuronParams()
    # subthreshold trajectory vs closed form, 100 ms at dt=0.1
    current = 300.0
    state = new_state(1, params)
    for k in range(int(WINDOW / DT)):
        state, fired = step_neuron(state, params, np.array([current]), DT)
        assert not fired.any()
        t = (k + 1) * DT
        expected = params.E_L + params.R * current * (1.0 - math.exp(-t / params.tau_m))
        assert abs(state.V_m[0] - expected) < 1e-9
    # threshold decay after a forced spike
    state = new_state(1, params)
    state.h1[0], state.h2[0] = params.alpha1, params.alpha2
    for k in range(int(WINDOW / DT)):
        state, _ = step_neuron(state, params, np.zeros(1), DT)
        t = (k + 1) * DT
        expected = (params.alpha1 * math.exp(-t / params.tau1)
                    + params.alpha2 * math.exp(-t / params.tau2))
        assert abs((state.h1[0] + state.h2[0]) - expected) < 1e-9


def test_c2_encoding_endpoints():
    params = NeuronParams()
    counts = [len(spikes_under_constant_current(params, p * I_K_DEFAULT, WINDOW, DT))
              for p in np.arange(0.0, 1.01, 0.1)]
    assert counts[0] == 0
    assert counts[-1] == 10
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_c3_stdp_matches_all_pairs_double_sum():
    rng = np.random.default_rng(2024)
    n_steps = 10_000
    for case in range(100):
        sign = "excitatory" if case % 2 else "inhibitory"
        w0 = 600.0 if sign == "excitatory" else -600.0
        plast = StdpParams()
        pop = SynapsePopulation(name="p", pre_index=np.array([0]),
                                post_index=np.array([0]),
                                weight=np.array([w0]), sign=sign,
                                n_pre=1, n_post=1, plasticity=plast)
        pre_set = set(np.unique(rng.integers(0, n_steps, size=rng.integers(0, 101))).tolist())
        post_set = set(np.unique(rng.integers(0, n_steps, size=rng.integers(0, 101))).tolist())
        trace = np.zeros(2)  # the pre and the post neuron's trace
        prev = 0
        for k in sorted(pre_set | post_set):
            if k > prev:
                decay_traces(trace, (k - prev) * DT)
            if k in pre_set:  # pre before post: coincident pairs potentiate
                stdp_on_pre(pop, 0, trace[1:])
                trace[0] += 1.0
            if k in post_set:
                stdp_on_post(pop, 0, trace[:1])
                trace[1] += 1.0
            prev = k
        tp = np.array(sorted(pre_set), dtype=np.float64) * DT
        tq = np.array(sorted(post_set), dtype=np.float64) * DT
        pot = dep = 0.0
        if tp.size and tq.size:
            d = tq[None, :] - tp[:, None]
            pot = np.sum(np.where(d >= 0.0, np.exp(-d / TAU_TRACE), 0.0))
            dep = np.sum(np.where(d < 0.0, np.exp(d / TAU_TRACE), 0.0))
        delta = plast.A_plus * plast.W_max * pot - plast.A_minus * plast.W_max * dep
        expected = w0 + (delta if sign == "excitatory" else -delta)
        lo, hi = pop._bounds()
        assert lo < expected < hi, "case must not clip for the oracle to apply"
        assert abs(pop.weight[0] - expected) < 1e-9

    # weights saturate exactly at the clip bounds under a hot schedule
    hot = StdpParams(A_plus=0.9, A_minus=0.0, W_max=1200.0)
    pop = SynapsePopulation(name="p", pre_index=np.array([0]),
                            post_index=np.array([0]),
                            weight=np.array([1100.0]), sign="excitatory",
                            n_pre=1, n_post=1, plasticity=hot)
    trace = np.zeros(2)
    for k in range(10):
        decay_traces(trace, DT)
        stdp_on_pre(pop, 0, trace[1:])
        trace[0] += 1.0
        stdp_on_post(pop, 0, trace[:1])
        trace[1] += 1.0
        assert 0.0 <= pop.weight[0] <= 1200.0
    assert pop.weight[0] == 1200.0


def test_c3_engine_stdp_matches_all_pairs_double_sum():
    # one plastic presentation: every STDP connection's weight change equals
    # the double sum over the record's pre and post spikes, so within a step
    # every projection's pre events see the post traces before the step's
    # spikes and its post events the pre traces after them
    net = build_network(NetworkConfig(rows=4, cols=4, n_classes=2,
                                      neurons_per_class=2, seed=5,
                                      w_feat_inhib=800.0))
    set_phase1_modes(net)
    stdp = ("input_feat", "feat_inhib", "inhib_feat")
    before = {name: net.projections[name].weight.copy() for name in stdp}
    img = np.random.default_rng(0).uniform(0.3, 1.0, size=(4, 4))
    record = present_image(net, img, SimulationConfig(dt=DT, window=WINDOW),
                           EncodingConfig(I_K=I_K_DEFAULT, target=10), plastic=True)
    for name in stdp:
        pop = net.projections[name]
        plast = pop.plasticity
        pre_layer, post_layer = net.wiring[name]
        pot = np.zeros(pop.n_connections)
        dep = np.zeros(pop.n_connections)
        for c, (i, j) in enumerate(zip(pop.pre_index, pop.post_index)):
            tp = record.times[pre_layer.start + i]
            tq = record.times[post_layer.start + j]
            d = tq[None, :] - tp[:, None]
            pot[c] = np.sum(np.where(d >= 0.0, np.exp(-d / TAU_TRACE), 0.0))
            dep[c] = np.sum(np.where(d < 0.0, np.exp(d / TAU_TRACE), 0.0))
        assert pot.any() and dep.any(), f"{name}: both pair orders must occur"
        gain = plast.A_plus * plast.W_max * pot      # |w| grows by at most this
        loss = plast.A_minus * plast.W_max * dep     # and shrinks by at most this
        sign = 1.0 if pop.sign == "excitatory" else -1.0
        magnitude = sign * before[name]
        assert np.all(magnitude - loss > plast.W_min), "no event may clip"
        assert np.all(magnitude + gain < plast.W_max), "no event may clip"
        expected = before[name] + sign * (gain - loss)
        assert np.max(np.abs(pop.weight - expected)) < 1e-9


def test_c4_resume_properties():
    rng = np.random.default_rng(7)

    def rec(trains):
        return SpikeRecord([np.asarray(t, dtype=np.float64) for t in trains], WINDOW)

    def pair_pop(sign):
        plast = ResumeParams()
        w0 = 241.0 if sign == "excitatory" else -120.0
        return SynapsePopulation(name="p", pre_index=np.array([0]),
                                 post_index=np.array([0]),
                                 weight=np.array([w0]), sign=sign,
                                 n_pre=1, n_post=1, plasticity=plast), w0

    # identical teacher and actual trains cancel exactly
    for _ in range(50):
        t = np.unique(rng.uniform(0, WINDOW, size=rng.integers(0, 15)))
        pre = np.unique(rng.uniform(0, WINDOW, size=8))
        pop, w0 = pair_pop("excitatory")
        resume_update(pop, rec([t]), rec([t]), rec([pre]), WINDOW)
        assert pop.weight[0] == w0

    # single causal pair matches A * W_max * exp(-dt/tau) to 1e-12
    p = ResumeParams()
    for d in (0.3, 2.0, 9.5, 33.0):
        pop, w0 = pair_pop("excitatory")
        resume_update(pop, rec([[40.0 + d]]), rec([[]]), rec([[40.0]]), WINDOW)
        expected = w0 + p.W_max * p.A * math.exp(-d / p.tau)
        assert abs(pop.weight[0] - expected) < 1e-12

    # sign contract over 1000 random instances: teacher spikes push toward
    # firing (excitatory up, inhibitory down), actual spikes the opposite way
    for _ in range(1000):
        sign = "excitatory" if rng.random() < 0.5 else "inhibitory"
        pop, w0 = pair_pop(sign)
        pre = np.unique(rng.uniform(0, WINDOW, size=rng.integers(1, 6)))
        ev = np.unique(rng.uniform(0, WINDOW, size=rng.integers(1, 6)))
        teach = rng.random() < 0.5
        direction = 1.0 if teach else -1.0
        resume_update(pop, rec([ev if teach else []]),
                      rec([[] if teach else ev]), rec([pre]), WINDOW)
        delta = pop.weight[0] - w0
        if sign == "excitatory":
            assert direction * delta >= 0.0
        else:
            assert direction * delta <= 0.0


def test_c5_topology_counts():
    net = build_network(NetworkConfig())
    sizes = (net.input_layer.size, net.feature_layer.size,
             net.inhib_layer.size, net.readout_layer.size)
    assert sizes == (1024, 256, 256, 100)
    assert net.projections["input_feat"].weight.size == 262_144
    assert net.projections["feat_inhib"].weight.size == 256
    assert net.projections["inhib_feat"].weight.size == 256 * 255
    p5 = net.projections["readout_lateral"]
    assert np.all(net.class_of[p5.pre_index] != net.class_of[p5.post_index])

    rng = np.random.default_rng(123)
    for _ in range(50):
        rows, cols = int(rng.integers(2, 9)) * 2, int(rng.integers(2, 9)) * 2
        n_classes, npc = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        cfg = NetworkConfig(rows=rows, cols=cols, n_classes=n_classes,
                            neurons_per_class=npc, seed=int(rng.integers(999)))
        net = build_network(cfg)
        n_in, n_feat = rows * cols, rows * cols // 4
        n_read = n_classes * npc
        assert net.projections["input_feat"].weight.size == n_in * n_feat
        assert net.projections["feat_inhib"].weight.size == n_feat
        assert net.projections["inhib_feat"].weight.size == n_feat * (n_feat - 1)
        p5 = net.projections["readout_lateral"]
        assert p5.weight.size == n_read * (n_read - npc)


def test_c6_toy_run_reaches_80_percent():
    t0 = time.time()
    enc = EncodingConfig(I_K=I_K_DEFAULT, target=10)
    train = make_synthetic(3, 8, 8, 50, noise=0.03, seed=11)
    test = make_synthetic(3, 8, 8, 20, noise=0.03, seed=12)
    cfg = NetworkConfig(rows=8, cols=8, n_classes=3, neurons_per_class=5, seed=7)
    sim = SimulationConfig(seed=7, epochs_phase1=5, epochs_phase2=5)
    net = build_network(cfg)
    assert (net.input_layer.size, net.feature_layer.size,
            net.inhib_layer.size, net.readout_layer.size) == (64, 16, 16, 15)

    run_phase1(net, train, sim, enc)
    search = monte_carlo_weight_search(net, (80.0, 560.0), 5, train, sim, enc,
                                       seed=3)
    net.projections["feat_readout"].weight = search.best_weight
    run_phase2(net, train, sim, enc)
    report = evaluate(frozen_eval_net(net), test, sim, enc)
    elapsed = time.time() - t0
    assert report.overall >= 0.80, f"toy accuracy {report.overall:.3f} < 0.80"
    assert elapsed < 300.0, f"toy run took {elapsed:.0f}s, budget is 300s"


def test_c7_cifar_subset_smoke():
    root = os.environ.get("SPIKESIM_CIFAR_DIR")
    if not root:
        pytest.skip("SKIPPED: set SPIKESIM_CIFAR_DIR to the CIFAR-10 binary "
                    "batches to run the smoke test")
    enc = EncodingConfig(I_K=I_K_DEFAULT, target=10)
    full_train = load_cifar10(root, split="train")
    full_test = load_cifar10(root, split="test")
    train = Dataset(samples=[s for s in full_train if s.label < 2][:500],
                    n_classes=2, class_names=full_train.class_names[:2])
    test = Dataset(samples=[s for s in full_test if s.label < 2][:100],
                   n_classes=2, class_names=full_test.class_names[:2])
    cfg = NetworkConfig(rows=32, cols=32, n_classes=2, neurons_per_class=10,
                        seed=7)
    sim = SimulationConfig(seed=7, epochs_phase1=2, epochs_phase2=2)
    net = build_network(cfg)
    run_phase1(net, train, sim, enc)
    search = monte_carlo_weight_search(net, (80.0, 560.0), 3,
                                       Dataset(samples=train.samples[:100],
                                               n_classes=2), sim, enc, seed=3)
    net.projections["feat_readout"].weight = search.best_weight
    run_phase2(net, train, sim, enc)
    report = evaluate(frozen_eval_net(net), test, sim, enc)
    assert report.overall > 0.60, f"CIFAR smoke accuracy {report.overall:.3f}"


def test_c8_persistence_and_determinism(tmp_path):
    enc = EncodingConfig(I_K=I_K_DEFAULT, target=10)
    ds = make_synthetic(2, 4, 4, 3, noise=0.03, seed=11)
    cfg = NetworkConfig(rows=4, cols=4, n_classes=2, neurons_per_class=2, seed=5)

    # bit-exact round trip
    net = build_network(cfg)
    ckpt = checkpoint_from_network(net, phase=1, presentations=9)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(ckpt, p1)
    save_checkpoint(ckpt, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = load_checkpoint(p1)
    assert all(np.array_equal(back.weights[k], ckpt.weights[k])
               for k in ckpt.weights)

    # identical seeds -> byte-identical checkpoints and equal reports
    sim = SimulationConfig(seed=5, epochs_phase1=2, checkpoint_interval=5)
    outs = []
    for sub in ("r1", "r2"):
        n = build_network(cfg)
        run_phase1(n, ds, sim, enc, out_dir=tmp_path / sub)
        outs.append((tmp_path / sub / "ckpt_phase1_final.bin").read_bytes())
        rep = evaluate(frozen_eval_net(n), ds, sim, enc)
        outs.append(rep.render())
    assert outs[0] == outs[2] and outs[1] == outs[3]

    # resume from a mid-run checkpoint equals the uninterrupted run
    mid = load_checkpoint(tmp_path / "r1" / "ckpt_phase1_00000005.bin")
    resumed = build_network(cfg)
    apply_checkpoint(resumed, mid)
    run_phase1(resumed, ds, sim, enc, start_presentation=mid.presentations)
    straight = build_network(cfg)
    run_phase1(straight, ds, sim, enc)
    for name in resumed.projections:
        assert np.array_equal(resumed.projections[name].weight,
                              straight.projections[name].weight)


def test_c9_report_shape_ten_classes():
    enc = EncodingConfig(I_K=I_K_DEFAULT, target=10)
    sim = SimulationConfig(seed=5)
    ds = make_synthetic(10, 8, 8, 1, noise=0.03, seed=11)
    net = build_network(NetworkConfig(rows=8, cols=8, n_classes=10,
                                      neurons_per_class=2, seed=5))
    report = evaluate(frozen_eval_net(net), ds, sim, enc)
    assert report.per_class.shape == (10,)
    assert report.class_ids.tolist() == list(range(10))
    text = report.render()
    for k in range(10):
        assert f"class_{k}" in text
    assert "mean over classes" in text and "+-" in text
