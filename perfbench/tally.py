"""Counts taken at the presentation boundary.

A `Tally` wraps `spikesim.training.present_image` and
`spikesim.training.resume_update` for the whole run, traced or not. Per
presentation it keeps the mode, the host time and the spikes per layer;
those feed the output digest, the per-mode throughput and the synaptic
event count. After each presentation it lets the gauge take a speed
sample (gauge.tick), outside the presentation's own time. The two extra
counts of the traced run (silent steps and the distinct frozen-lower inputs)
need a pass over the spike times and a hash of the lower weights, so they
are taken only when `detail` is set.

A synaptic event is one connection carrying one presynaptic spike: each
spike of neuron i adds the out-degree of i in every projection leaving it.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict

import numpy as np

import gauge

LOWER = ("input_feat", "feat_inhib", "inhib_feat")
PRE_LAYER = {"input_feat": "input", "feat_inhib": "feature", "inhib_feat": "inhib",
             "feat_readout": "feature", "readout_lateral": "readout"}


def presentation_mode(net, plastic: bool) -> str:
    if plastic:
        return "stdp"
    if any(p.mode == "resume" for p in net.projections.values()):
        return "phase2"
    return "frozen"


class Tally:
    def __init__(self, training, detail: bool = False) -> None:
        self.training = training
        self.detail = detail
        self._orig = None
        self._outdeg: dict[tuple[object, str], np.ndarray] = {}
        self.reset()

    def reset(self) -> None:
        self.modes: list[str] = []
        self.layer_spikes: list[tuple[int, ...]] = []
        self.mode_s: dict[str, float] = defaultdict(float)
        self.resume_s = 0.0
        self.syn_events: dict[str, int] = defaultdict(int)
        self.steps = 0
        self.silent_steps = 0
        self.frozen_lower = 0
        self.frozen_keys: set[tuple[bytes, bytes]] = set()

    def install(self) -> None:
        """Wrap whatever the names hold now, so that spans installed
        earlier exclude the counting."""
        present, resume = self._orig = (self.training.present_image,
                                        self.training.resume_update)
        clock = time.perf_counter

        def counted_present(net, img, sim, enc, plastic=False):
            t0 = clock()
            record = present(net, img, sim, enc, plastic)
            dt = clock() - t0
            self._count(net, img, sim, plastic, record, dt)
            gauge.tick()
            return record

        def counted_resume(*args, **kwargs):
            t0 = clock()
            out = resume(*args, **kwargs)
            self.resume_s += clock() - t0
            return out

        self.training.present_image = counted_present
        self.training.resume_update = counted_resume

    def restore(self) -> None:
        self.training.present_image, self.training.resume_update = self._orig

    def _outdegrees(self, net, name: str) -> np.ndarray:
        key = (net.config, name)
        if key not in self._outdeg:
            pop = net.projections[name]
            self._outdeg[key] = np.bincount(pop.pre_index, minlength=pop.n_pre)
        return self._outdeg[key]

    def _count(self, net, img, sim, plastic: bool, record, dt: float) -> None:
        mode = presentation_mode(net, plastic)
        counts = np.fromiter((t.size for t in record.times), dtype=np.int64,
                             count=record.n_neurons)
        per_layer = {layer.name: counts[layer.start:layer.stop] for layer in net.layers}
        self.modes.append(mode)
        self.mode_s[mode] += dt
        self.layer_spikes.append(tuple(int(per_layer[l.name].sum()) for l in net.layers))
        for name, layer in PRE_LAYER.items():
            self.syn_events[name] += int(per_layer[layer] @ self._outdegrees(net, name))
        if not self.detail:
            return
        n_steps = sim.n_steps
        nonempty = [t for t in record.times if t.size]
        spiking = np.unique(np.round(np.concatenate(nonempty) / sim.dt)).size if nonempty else 0
        self.steps += n_steps
        self.silent_steps += n_steps - spiking
        if all(net.projections[n].mode == "static" for n in LOWER):
            self.frozen_lower += 1
            px = getattr(img, "pixels", img)
            lower = hashlib.blake2b(digest_size=16)
            for n in LOWER:
                lower.update(net.projections[n].weight.tobytes())
            self.frozen_keys.add((hashlib.blake2b(np.ascontiguousarray(px).tobytes(),
                                                  digest_size=16).digest(),
                                  lower.digest()))

    # -- per-op results ---------------------------------------------------

    @property
    def presentations(self) -> int:
        return len(self.modes)

    def spikes_digest(self) -> bytes:
        return np.asarray(self.layer_spikes, dtype="<i8").tobytes()

    def pps(self) -> dict[str, float]:
        """Presentations per host second for each mode; a phase-2
        presentation includes its supervised updates."""
        out = {}
        for mode in ("stdp", "phase2", "frozen"):
            n = self.modes.count(mode)
            busy = self.mode_s[mode] + (self.resume_s if mode == "phase2" else 0.0)
            if n:
                out[mode] = n / busy
        return out
