"""The names the benchmark in perfbench/ reads from spikesim.

The benchmark's tracer and tally replace spikesim functions by name, and its
workloads read the plasticity rules' clip band. A deleted or renamed name
fails here, in Tier-1, and not only in the traced benchmark run. The tests
import perfbench's modules and change nothing there.
"""

from pathlib import Path

import spikesim
import spikesim.cli  # noqa: F401  (the tracer patches names in cli too)
import spikesim.training

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_and_tally_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tally
    import tracer

    training = spikesim.training
    before = dict(vars(training))
    present = training.present_image
    spans = tracer.Tracer()
    try:
        spans.install(spikesim)
        counts = tally.Tally(training)
        counts.install()
        assert training.present_image is not present
        counts.restore()
    finally:
        spans.restore()
    assert training.present_image is present
    assert all(vars(training)[name] is value for name, value in before.items())


def test_workload_clip_bounds(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    assert workloads.Workload(spikesim, 0, tmp_path).clip_bounds() == (0.0, 1200.0)


def test_tally_counts_phase2_presentations(monkeypatch, tmp_path):
    # the tally counts phase-2 presentations at training.present_image; an
    # op that makes none leaves the traced run with no per-layer spikes
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tally
    import workloads

    workload = workloads.ReadoutDense(spikesim, 3, tmp_path)
    workload.setup()
    counts = tally.Tally(spikesim.training)
    counts.install()
    try:
        workload.op()
    finally:
        counts.restore()
    assert counts.modes.count("phase2") >= 1
