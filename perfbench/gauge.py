"""Host speed, measured alongside the workload.

The small shared hosts this benchmark runs on change speed with their
neighbours' load, by up to 1.5x for a minute or more at a time. An op's wall
time follows that drift, so runs of the same code a few minutes apart can
disagree by more than any useful bound.

The gauge times a fixed reference kernel, independent of spikesim, between
and during the ops: once before the first op, after every op, and at
presentation boundaries at most once every `EVERY` seconds. The run's median
op time divided by the mean of the samples taken from the first op's start
to the last op's end is `wall_ref`, the op's cost in kernel durations: both
span the same stretch of time, so the host's speed largely cancels and the
program's stays. The mean, not the median, of the samples, because the
host's speed is often two-valued and the op's time is a time-weighted mix of
both.

The kernel is a small spiking-network loop driven from Python, shaped like
the workload's own network (`configure`): numpy calls on its neurons, a decay
over its synapse traces, and a gather and `bincount` over the synapses of the
neurons that fired. The shape matters: interpreter-bound steps on small
arrays speed up more than steps that stream large arrays when the host does,
so a kernel of small arrays over-corrected the dense workloads and one with a
dense network's synapses under-corrected the 8x8 toy.

`clock()` is the time the workloads see: wall time minus the time spent in
the kernel, so op, stage and presentation times exclude the gauge.
"""

from __future__ import annotations

import time

import numpy as np

EVERY = 0.5             # seconds between samples taken inside an op
# kernel length in element-steps: ~25 ms whatever the shape on a 2-vCPU Xeon
# VM, counting the interpreter overhead of a step as 40,000 elements
WORK, STEP_OVERHEAD = 3e7, 40_000

_net: dict[str, np.ndarray] = {}
_steps = 0
samples: list[float] = []
enabled = False         # samples inside ops; off in traced runs
_spent = 0.0
_last = 0.0


def configure(neurons: int, synapses: int) -> None:
    """Shape the kernel like a network of this many neurons and synapses;
    the wiring and drive are fixed by a constant seed."""
    global _steps
    _steps = max(1, round(WORK / (STEP_OVERHEAD + synapses)))
    rng = np.random.default_rng(12345)
    pre = np.sort(rng.integers(0, neurons, synapses))
    _net.update(
        post=rng.integers(0, neurons, synapses),
        weight=rng.uniform(0.0, 1.0, synapses),
        first=np.searchsorted(pre, np.arange(neurons + 1)),    # synapses of i
        drive=rng.uniform(0.0, 0.25, size=(64, neurons)),
        trace=np.zeros(synapses))


def kernel() -> int:
    """A fixed amount of work: leaky integrators and synapse traces."""
    post, weight, first, drive, trace = (_net[k] for k in
                                         ("post", "weight", "first", "drive", "trace"))
    v = np.zeros(first.size - 1)
    trace.fill(0.0)
    fired_total = 0
    for step in range(_steps):
        v *= 0.9
        v += drive[step % 64]
        fired = np.flatnonzero(v > 1.0)
        v[fired] = 0.0
        trace *= 0.95
        if fired.size:
            fired_total += fired.size
            conns = np.concatenate([np.arange(first[i], first[i + 1]) for i in fired[:20]])
            trace[conns] += 1.0
            v += 0.01 * np.bincount(post[conns], weights=weight[conns], minlength=v.size)
    return fired_total


def sample() -> float:
    """Time the kernel once; keep the sample; return it."""
    global _spent, _last
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    samples.append(t1 - t0)
    _spent += t1 - t0
    _last = t1
    return t1 - t0


def tick() -> None:
    """Sample if the gauge is on and the last sample is `EVERY` s old."""
    if enabled and time.perf_counter() - _last >= EVERY:
        sample()


def clock() -> float:
    """Wall time excluding the gauge's own samples."""
    return time.perf_counter() - _spent
