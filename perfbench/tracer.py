"""Spans around spikesim's public functions, installed from outside.

spikesim has no tracing hooks of its own, so the traced run replaces names
where they are looked up (`spikesim.training.step_neuron`,
`SynapsePopulation.connections_by_pre`, `SpikeRecord.from_step_events`, ...)
with wrappers that record one span per call: name, start, end and the span
that was open when the call began. Spans live in flat arrays in memory and
are written once, at exit. A function's self time is its span's duration
minus the durations of the spans directly nested in it.

`calibrate_ik` is traced as one span: the neuron steps inside it go through
`spikesim.encoding.step_neuron`, which is deliberately left unwrapped so that
`neuron.step_neuron` counts only the steps of the presentation engine.
"""

from __future__ import annotations

import json
import os
import time
from array import array

import numpy as np


def _pop_label(base: str):
    """Label a span by the projection that is the call's first argument."""
    return lambda args: f"{base}.{args[0].name}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.ckpt_bytes = 0

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, label):
        """`fn` recording a span per call; `label` is a name or a function
        of the call's positional arguments returning one."""
        name_of = (lambda args: label) if isinstance(label, str) else label
        clock = time.perf_counter
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, ident = self.start, self.end, self._id

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(ident(name_of(args)))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, label) -> None:
        """Replace `owner.attr` by its traced version until `restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            new = classmethod(self.wrap(original.__func__, label))
        else:
            new = self.wrap(original, label)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, spikesim) -> None:
        """Wrap the public functions of every spikesim module."""
        cli, training = spikesim.cli, spikesim.training
        SynapsePopulation = spikesim.plasticity.SynapsePopulation
        for owner in (cli, training):
            self.patch(owner, "run_phase1", "training.run_phase1")
            self.patch(owner, "run_phase2", "training.run_phase2")
            self.patch(owner, "evaluate", "training.evaluate")
            self.patch(owner, "monte_carlo_weight_search",
                       "training.monte_carlo_weight_search")
        self.patch(cli, "main", "cli.main")
        self.patch(cli, "calibrate_ik", "encoding.calibrate_ik")
        self.patch(training, "present_image", "training.present_image")
        self.patch(training, "frozen_eval_net", "training.frozen_eval_net")
        self.patch(training, "step_neuron", "neuron.step_neuron")
        self.patch(training, "deliver_spike", "neuron.deliver_spike")
        self.patch(training, "decay_traces", "plasticity.decay_traces")
        self.patch(training, "stdp_on_pre", _pop_label("plasticity.stdp_on_pre"))
        self.patch(training, "stdp_on_post", _pop_label("plasticity.stdp_on_post"))
        self.patch(training, "resume_update", _pop_label("plasticity.resume_update"))
        self.patch(training, "encode_image", "encoding.encode_image")
        self.patch(SynapsePopulation, "connections_by_pre",
                   _pop_label("plasticity.connections_by_pre"))
        self.patch(SynapsePopulation, "connections_by_post",
                   _pop_label("plasticity.connections_by_post"))
        self.patch(spikesim.records.SpikeRecord, "from_step_events",
                   "records.from_step_events")
        self.patch(spikesim.records.SpikeRecord, "subset", "records.subset")
        self.patch(spikesim.topology.NetworkTopology, "copy", "topology.copy")

        save = self.wrap(training.save_checkpoint, "dataio.save_checkpoint")

        def save_and_count(ckpt, path):
            save(ckpt, path)
            self.ckpt_bytes += os.path.getsize(path)

        self._patches.append((training, "save_checkpoint", training.save_checkpoint))
        training.save_checkpoint = save_and_count

    def summary(self) -> tuple[dict[str, dict[str, float]], float]:
        """Per span name: calls, total and self seconds; and the total
        seconds of top-level spans."""
        n = len(self.start)
        ids = np.frombuffer(self.name_id, dtype=np.int32)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        dur = np.frombuffer(self.end, dtype=np.float64)[:n] \
            - np.frombuffer(self.start, dtype=np.float64)[:n]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        per_name = {name: {"calls": int(calls[i]), "s": float(total[i]),
                           "self_s": float(own[i])}
                    for i, name in enumerate(self.names)}
        return per_name, float(dur[~nested].sum())

    def write(self, path: str) -> None:
        n = len(self.start)
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32)[:n],
                 parent=np.frombuffer(self.parent, dtype=np.int32)[:n],
                 start=np.frombuffer(self.start, dtype=np.float64)[:n],
                 end=np.frombuffer(self.end, dtype=np.float64)[:n])
