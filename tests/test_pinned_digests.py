"""Pinned digests of the engine's outputs: "bit-exact" as a test.

Each test runs a small, fixed workload and compares a blake2b digest of its
outputs with a pin. The pins were computed before the neuron step was
prepared once per simulation loop (commit d42e297), so they hold the engine
to every bit of the arithmetic it had then.

A change that reorders float operations on purpose (and so moves a few ulps)
must update these pins in the same change and report the largest |dw| it
causes in the final weights, as ROADMAP aim 3 asks. A pin that moves
without such a report is a regression.
"""

import hashlib

import numpy as np
import pytest

from spikesim import (Dataset, ImageSample, NetworkConfig, SimulationConfig,
                      build_network, evaluate, present_image, run_phase1, run_phase2)
from spikesim import training
from spikesim.topology import PROJECTION_ORDER
from spikesim.training import frozen_eval_net

PHASE1_WEIGHTS = "ea66151f03d77bfb02e149971b08bf30"
PHASE2_OUTPUTS = "2649dacccd1ff912483c523cc79bc8b9"


def firing_net(seed):
    """A 4x4 net whose inhib layer fires, so every projection delivers and
    the inhibitory STDP of phase 1 has work to do."""
    return build_network(NetworkConfig(rows=4, cols=4, n_classes=2, neurons_per_class=2,
                                       seed=seed, w_feat_inhib=800.0))


def bright_ds(seed, n):
    rng = np.random.default_rng(seed)
    return Dataset(samples=[ImageSample(pixels=rng.uniform(0.3, 1.0, (4, 4)), label=i % 2,
                                        source_id=f"bright:{i}") for i in range(n)],
                   n_classes=2)


def digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def weights(net):
    return [net.projections[name].W for name in PROJECTION_ORDER]


def test_phase1_weights_are_pinned(enc):
    sim = SimulationConfig(epochs_phase1=2)
    net = firing_net(3)
    run_phase1(net, bright_ds(3, 4), sim, enc)
    assert digest(weights(net)) == PHASE1_WEIGHTS


def test_phase2_and_evaluation_outputs_are_pinned(enc):
    sim = SimulationConfig(epochs_phase2=2)
    net = firing_net(4)
    ds = bright_ds(4, 6)
    run_phase2(net, ds, sim, enc)
    frozen = frozen_eval_net(net)
    # every neuron's spike train of each image, simulated whole
    rasters = [t for sample in ds for t in present_image(frozen, sample, sim, enc).times]
    # the batched replay of the readout that evaluation runs
    results = training._classify_all(frozen, ds, sim, enc)
    predictions = [np.array([r.predicted, r.tie], dtype=np.int64) for r in results]
    counts = [r.neuron_counts for r in results]
    report = evaluate(frozen, ds, sim, enc)
    assert any(t.size for t in rasters[-4:]), "the readout must fire"
    assert report.overall == pytest.approx(np.mean([r.predicted == s.label
                                                    for r, s in zip(results, ds)]))
    assert digest(weights(net) + rasters + predictions + counts) == PHASE2_OUTPUTS
