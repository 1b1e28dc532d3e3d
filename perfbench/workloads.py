"""The workloads: inputs made from the seed, one timed op, output checks.

Every op starts from the same state, so every op of a run computes the same
digest (final weights plus spikes per layer of every presentation), traced
or not. Digests are compared within a commit only: reordered float sums may
change them across commits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np

import images
from gauge import clock

# -- toy_pipeline -------------------------------------------------------------

# The README quick start / c6 network, data and phase-1 training, run through
# the CLI, sized so that one pipeline fits one run: a 0.2 ms step instead of
# 0.1 ms halves the steps per presentation (`calibrate` re-derives i_k for
# it), phase 2 runs two epochs instead of five, and the weight search scores
# each candidate on a 6-image subset instead of all 150 images. The seed
# draws the pixel noise of the training and test images; wiring
# (topology_seed) and the search candidates (seed) stay at the quick-start
# values, on which the c6 gate holds.
TOY_CONFIG = """\
rows = 8
cols = 8
n_classes = 3
neurons_per_class = 5
topology_seed = 7
seed = 7
dt = 0.2
epochs_phase1 = 5
epochs_phase2 = 2
dataset = synthetic
synth_train_per_class = 50
synth_test_per_class = 20
synth_seed = {train_seed}
synth_test_seed = {test_seed}
"""
TOY_SEARCH = ["--lo", "80", "--hi", "560", "--trials", "5", "--subset", "6"]
TOY_ACCURACY_GATE = 0.80


def digest(weights: dict[str, np.ndarray], spikes: bytes, *extra: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(weights):
        h.update(name.encode())
        h.update(np.ascontiguousarray(weights[name], dtype="<f8").tobytes())
    h.update(spikes)
    for blob in extra:
        h.update(blob)
    return h.hexdigest()


def clip_frac(weights: dict[str, np.ndarray], w_min: float, w_max: float) -> dict[str, float]:
    """Share of each projection's weights pinned at a clip bound (magnitudes)."""
    out = {}
    for name, w in weights.items():
        mag = np.abs(w)
        out[name] = float(((mag <= w_min) | (mag >= w_max)).mean()) if w.size else 0.0
    return out


class Workload:
    """One op of a workload; subclasses fill in set-up, the op and checks."""

    name = ""

    def __init__(self, spikesim, seed: int, work_dir: Path) -> None:
        self.ss = spikesim
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> dict:
        """Run once; return wall_s, stages, weights and anything to check."""
        raise NotImplementedError

    def check(self, result: dict) -> list[str]:
        return []

    @staticmethod
    def shape(net) -> tuple[int, int]:
        """Neurons and synapses of a network, which shape the gauge kernel."""
        return net.n_neurons, sum(p.pre_index.size for p in net.ordered_projections())

    def clip_bounds(self) -> tuple[float, float]:
        """Weight magnitude band of the plasticity rules."""
        p = self.ss.plasticity.excitatory_stdp()
        return p.W_min, p.W_max


class ToyPipeline(Workload):
    name = "toy_pipeline"

    def setup(self) -> None:
        train_seed, test_seed = np.random.SeedSequence(self.seed).generate_state(2)
        self.config = TOY_CONFIG.format(train_seed=train_seed, test_seed=test_seed)
        d = Path(tempfile.mkdtemp(dir=self.work_dir))
        try:
            (d / "toy.cfg").write_text(self.config)
            cfg, net_cfg, sim, params = self.ss.cli.load_run_config(d / "toy.cfg")
            train = self.ss.cli.resolve_dataset(cfg, net_cfg, "train", None)
            test = self.ss.cli.resolve_dataset(cfg, net_cfg, "test", None)
            net = self.ss.build_network(net_cfg, params)
        finally:
            shutil.rmtree(d)
        self.net_shape = self.shape(net)
        sizes = tuple(layer.size for layer in net.layers)
        if sizes != (64, 16, 16, 15) or (len(train), len(test)) != (150, 60):
            raise RuntimeError(f"toy inputs have the wrong shape: {sizes}, "
                               f"{len(train)} train, {len(test)} test")

    def op(self) -> dict:
        d = Path(tempfile.mkdtemp(dir=self.work_dir))
        try:
            return self._pipeline(d)
        finally:
            shutil.rmtree(d)

    def _pipeline(self, d: Path) -> dict:
        cfg, run = str(d / "toy.cfg"), str(d / "run")
        Path(cfg).write_text(self.config)
        p1 = f"{run}/ckpt_phase1_final.bin"
        stages = [
            ("calibrate", ["calibrate", "--config", cfg]),
            ("phase1", ["train", "--phase", "1", "--config", cfg, "--out", run]),
            ("search", ["search-weights", "--config", cfg, "--from-checkpoint", p1,
                        "--out", run, *TOY_SEARCH, "--write"]),
            ("phase2", ["train", "--phase", "2", "--config", cfg, "--out", run,
                        "--from-checkpoint", p1]),
            ("eval", ["test", "--config", cfg, "--checkpoint",
                      f"{run}/ckpt_phase2_final.bin"]),
        ]
        times, outputs = {}, {}
        t0 = clock()
        for stage, argv in stages:
            buf = io.StringIO()
            t = clock()
            with contextlib.redirect_stdout(buf):
                code = self.ss.cli.main(argv)
            times[stage] = clock() - t
            outputs[stage] = buf.getvalue()
            if code != 0:
                raise RuntimeError(f"spikesim {argv[0]} exited with {code}")
        wall = clock() - t0
        ckpt = self.ss.load_checkpoint(f"{run}/ckpt_phase2_final.bin")
        found = re.search(r"^overall\s+\d+\s+([\d.]+)%", outputs["eval"], re.M)
        return {
            "wall_s": wall,
            "stages": times,
            "weights": ckpt.weights,
            "accuracy": float(found.group(1)) / 100.0 if found else float("nan"),
            "extra": [Path(f"{run}/ckpt_phase1_final.bin").read_bytes(),
                      Path(f"{run}/weight_search.tsv").read_bytes(),
                      outputs["eval"].encode()],
        }

    def check(self, result: dict) -> list[str]:
        acc = result["accuracy"]
        if not acc >= TOY_ACCURACY_GATE:
            return [f"test accuracy {acc:.3f} below the c6 gate {TOY_ACCURACY_GATE}"]
        return []


# -- dense 32x32 workloads ----------------------------------------------------


class Dense(Workload):
    """CIFAR geometry: 32x32 -> 256 -> 256 -> 100 (10 classes x 10)."""

    def setup(self) -> None:
        ss = self.ss
        self.net_cfg = ss.NetworkConfig(rows=32, cols=32, n_classes=10,
                                        neurons_per_class=10, seed=self.seed)
        self.enc = ss.EncodingConfig(I_K=ss.calibrate_ik(ss.NeuronParams()))
        self.make_inputs()
        net = ss.build_network(self.net_cfg)
        self.net_shape = self.shape(net)
        self.initial = {p.name: p.weight.copy() for p in net.ordered_projections()}

    def fresh_net(self):
        return self.ss.build_network(self.net_cfg)

    def _dataset(self, pairs):
        samples = [self.ss.ImageSample(pixels=px, label=label, source_id=f"dense:{i}")
                   for i, (px, label) in enumerate(pairs)]
        return self.ss.Dataset(samples=samples, n_classes=self.net_cfg.n_classes)

    @staticmethod
    def _weights(net) -> dict[str, np.ndarray]:
        return {p.name: p.weight.copy() for p in net.ordered_projections()}

    def check(self, result: dict) -> list[str]:
        errors = []
        w_min, w_max = self.clip_bounds()
        for name, w in result["weights"].items():
            mag = np.abs(w)
            if not np.all(np.isfinite(w)) or mag.min() < w_min or mag.max() > w_max:
                errors.append(f"{name}: weights outside [{w_min}, {w_max}]")
        return errors


class StdpDense(Dense):
    """Phase-1 STDP, one epoch over 4 dense images."""

    name = "stdp_dense_32"
    N_IMAGES = 4

    def make_inputs(self) -> None:
        imgs = images.dense_images(self.seed, self.N_IMAGES)
        self.train = self._dataset([(px, i % 10) for i, px in enumerate(imgs)])
        self.sim = self.ss.SimulationConfig(epochs_phase1=1)

    def op(self) -> dict:
        net = self.fresh_net()
        t0 = clock()
        self.ss.training.run_phase1(net, self.train, self.sim, self.enc)
        wall = clock() - t0
        return {"wall_s": wall, "stages": {"phase1": wall}, "weights": self._weights(net)}

    def check(self, result: dict) -> list[str]:
        errors = super().check(result)
        for name in ("input_feat", "feat_inhib", "inhib_feat"):
            if np.array_equal(result["weights"][name], self.initial[name]):
                errors.append(f"{name}: STDP left every weight unchanged")
        return errors


class ReadoutDense(Dense):
    """Phase 2 on frozen (initial) lower weights: 2 epochs over 2 images of
    2 classes with the per-epoch training-set evaluation, then a frozen
    evaluation of 6 held-out images of the same classes."""

    name = "readout_dense_32"
    CLASSES, TRAIN_PER_CLASS, TEST_PER_CLASS, EPOCHS = 2, 1, 3, 2

    def make_inputs(self) -> None:
        pairs = images.class_images(self.seed, self.CLASSES,
                                    self.TRAIN_PER_CLASS + self.TEST_PER_CLASS)
        cut = self.CLASSES * self.TRAIN_PER_CLASS
        self.train, self.test = self._dataset(pairs[:cut]), self._dataset(pairs[cut:])
        self.sim = self.ss.SimulationConfig(epochs_phase2=self.EPOCHS)

    def op(self) -> dict:
        training = self.ss.training
        net = self.fresh_net()
        t0 = clock()
        training.run_phase2(net, self.train, self.sim, self.enc)
        t1 = clock()
        report = training.evaluate(training.frozen_eval_net(net), self.test, self.sim, self.enc)
        t2 = clock()
        return {"wall_s": t2 - t0, "stages": {"phase2": t1 - t0, "eval": t2 - t1},
                "weights": self._weights(net), "accuracy": report.overall}

    def check(self, result: dict) -> list[str]:
        errors = super().check(result)
        for name in ("input_feat", "feat_inhib", "inhib_feat"):
            if not np.array_equal(result["weights"][name], self.initial[name]):
                errors.append(f"{name}: a frozen projection changed in phase 2")
        if np.array_equal(result["weights"]["feat_readout"], self.initial["feat_readout"]):
            errors.append("feat_readout: the supervised rule changed no weight")
        if not 0.0 <= result["accuracy"] <= 1.0:
            errors.append(f"accuracy {result['accuracy']} outside [0, 1]")
        return errors


WORKLOADS = {w.name: w for w in (ToyPipeline, StdpDense, ReadoutDense)}
