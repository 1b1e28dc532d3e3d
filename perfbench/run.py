#!/usr/bin/env python3
"""spikesim benchmark: one workload, one seed, end to end or traced.

    python3 perfbench/run.py --workload toy_pipeline --seed 1 --seconds 30 --trace 0

The run imports spikesim from `src/` of the checkout it sits in, builds the
workload's inputs from the seed (set-up, repeated and timed; an untraced run
sets up again after every op), then repeats the workload's op in one process
until `--seconds` would be exceeded, always completing at least one op. Every op is checked; a run with a failed op or
with ops that disagree on the output digest prints `"correct": false` and
exits 1. Between and during the ops a reference kernel measures the host's
speed (gauge.py).

With `--trace 0` it reports the end-to-end metrics of metrics.END_TO_END,
among them `wall_ref`, the median op time in reference-kernel durations.
With `--trace 1` it runs one op untraced as the reference, then traced ops
with spans around every public spikesim function (tracer.py), and reports
metrics.PER_LAYER: calls and seconds per op for each span name, counts at the
presentation boundary, and the tracing overhead (traced minus untraced op
time). The traced digests must equal the reference digest.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Lines before it are a readable table that adds the raw op time
`wall_s`, presentations per second, the mean kernel time `ref_s`, the stage
times, presentations per second per mode, test accuracy, error rate, digest and
environment. The full record goes to `.bench_out/` in the checkout, with the
spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import fmean, median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Set-ups before the first op: at least this many, and at least this long.
# The host's speed flips between two states a few seconds apart, so an
# untraced run also sets up once more after every op, and setup_s is the
# median over the whole run.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
GAUGE_WARMUP = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spikesim():
    """Import spikesim from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "spikesim" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no spikesim sources at {src}")
    sys.path.insert(0, str(src))
    import spikesim
    import spikesim.cli  # noqa: F401  (submodules the workloads and tracer use)
    import spikesim.training  # noqa: F401
    if Path(spikesim.__file__).resolve().parent != src / "spikesim":
        raise SystemExit(f"benchmark: imported spikesim from {spikesim.__file__}")
    return spikesim


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(np) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "commit": git_commit()}


class Runner:
    """Runs ops of one workload and keeps what each one produced."""

    def __init__(self, workload, tally) -> None:
        self.workload = workload
        self.tally = tally
        self.ops: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one(self) -> float:
        """Run one op; return its duration, whether it succeeded or not."""
        import gauge
        from workloads import clip_frac, digest
        tally = self.tally
        tally.reset()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            r = self.workload.op()
        except Exception:       # a failed op is counted, and the run goes on
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return time.perf_counter() - t0
        finally:
            gauge.sample()
        took = time.perf_counter() - t0
        r["digest"] = digest(r["weights"], tally.spikes_digest(), *r.pop("extra", []))
        r["presentations"] = tally.presentations
        r["syn_events"] = dict(tally.syn_events)
        r["pps"] = tally.pps()
        r["spikes"] = [sum(col) / tally.presentations for col in zip(*tally.layer_spikes)]
        r["clip_frac"] = clip_frac(r["weights"], *self.workload.clip_bounds())
        r["silent_step_frac"] = tally.silent_steps / tally.steps if tally.steps else 0.0
        r["frozen_lower"] = (tally.frozen_lower, len(tally.frozen_keys))
        problems = self.workload.check(r)
        del r["weights"]
        if self.ops and r["digest"] != self.ops[0]["digest"]:
            problems.append(f"digest {r['digest']} differs from the run's first "
                            f"op {self.ops[0]['digest']}")
        if problems:
            self.failed += 1
            self.errors.extend(problems)
        self.ops.append(r)
        return took

    def repeat(self, seconds: float, budget_start: float, estimate: float = 0.0,
               between=None) -> None:
        """Run ops until the next one would end after `seconds`; at least one.
        `between`, if given, runs after every op."""
        durations = [estimate] if estimate else []
        while True:
            durations.append(self.one())
            if between:
                between()
            elapsed = time.perf_counter() - budget_start
            if elapsed + median(durations) > seconds:
                return


def end_to_end(runner: Runner, setup_s: float, ref_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "wall_ref": median([r["wall_s"] for r in runner.ops]) / ref_s,
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner: Runner, tracer, reference: dict) -> dict[str, float]:
    from metrics import LAYERS, PER_LAYER, PROJECTIONS
    ops = runner.ops[1:]          # the first op is the untraced reference
    n = len(ops)
    spans, top_level_s = tracer.summary()
    out: dict[str, float] = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s"):     # 0 when never called
            out[name] = spans[span][field] / n if span in spans else 0
    last = ops[-1]
    out["dataio.save_checkpoint.bytes"] = tracer.ckpt_bytes / n
    out["training.presentations"] = last["presentations"]
    for layer, spikes in zip(LAYERS, last["spikes"]):
        out[f"neuron.spikes.{layer}"] = spikes
    out["neuron.silent_step_frac"] = last["silent_step_frac"]
    for p in PROJECTIONS:
        out[f"training.syn_events.{p}"] = last["syn_events"].get(p, 0)
        out[f"plasticity.clip_frac.{p}"] = last["clip_frac"][p]
    frozen, distinct = last["frozen_lower"]
    out["training.frozen_lower.presentations"] = frozen
    out["training.frozen_lower.distinct"] = distinct
    out["training.frozen_lower.useful_frac"] = distinct / frozen if frozen else 0.0
    traced_wall = median([r["wall_s"] for r in ops])
    out["trace.ops"] = n
    out["trace.untraced_wall_s"] = reference["wall_s"]
    out["trace.traced_wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - reference["wall_s"]
    out["trace.top_level_share"] = top_level_s / sum(r["wall_s"] for r in ops)
    return {name: out[name] for name in PER_LAYER}


def report(args, runner: Runner, metrics: dict, units: dict, env: dict,
           setup_times: list[float], refs: list[float]) -> dict:
    ops = runner.ops
    extras = {"ref_s": fmean(refs)}
    if ops:
        wall = median([r["wall_s"] for r in ops])
        extras.update(wall_s=wall, pres_per_s=ops[0]["presentations"] / wall)
    extras |= {f"{s}_s": median([r["stages"][s] for r in ops if s in r["stages"]])
              for s in ("calibrate", "phase1", "search", "phase2", "eval")
              if any(s in r["stages"] for r in ops)}
    for mode in ("stdp", "phase2", "frozen"):
        vals = [r["pps"][mode] for r in ops if mode in r["pps"]]
        if vals:
            extras[f"{mode}_pps"] = median(vals)
    if ops:
        extras["syn_events_per_s"] = median([sum(r["syn_events"].values()) / r["wall_s"]
                                             for r in ops])
    accs = [r["accuracy"] for r in ops if "accuracy" in r]
    if accs:
        extras["test_accuracy"] = median(accs)
    extras["error_rate"] = runner.failed / runner.attempted
    extra_units = {k: ("1/s" if k.endswith(("pps", "per_s")) else "s" if k.endswith("_s")
                       else "ratio")
                   for k in extras}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} ops={len(ops)} "
          f"failed={runner.failed}")
    for name, value in {**metrics, **extras}.items():
        unit = units.get(name) or extra_units[name]
        print(f"{name:<44} {value:>16.6g} {unit}")
    digests = sorted({r["digest"] for r in ops})
    print(f"digest {' '.join(digests) or '-'}")
    print("env " + json.dumps(env, sort_keys=True))
    for e in runner.errors:
        print("error: " + e.strip().replace("\n", "\n  "), file=sys.stderr)
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "metrics": metrics, "extras": extras, "digests": digests,
            "setup_s": setup_times, "ref_samples_s": refs,
            "ops": ops,
            "errors": runner.errors, "env": env}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in BLAS_VARS:                # before numpy loads its BLAS
        os.environ.setdefault(var, "1")
    spikesim = load_spikesim()
    import numpy as np
    from metrics import END_TO_END, PER_LAYER
    from tally import Tally
    from tracer import Tracer
    from workloads import WORKLOADS
    import gauge
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    env = environment(np)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        cls = WORKLOADS[args.workload]
        setup_times = []

        def set_up():
            t0 = time.perf_counter()
            w = cls(spikesim, args.seed, work)
            w.setup()
            setup_times.append(time.perf_counter() - t0)
            return w

        workload = set_up()
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            set_up()
        gauge.configure(*workload.net_shape)
        for _ in range(GAUGE_WARMUP):
            gauge.sample()
        first_ref = len(gauge.samples) - 1      # the sample just before the first op

        training = spikesim.training
        if not args.trace:
            gauge.enabled = True
            runner = Runner(workload, Tally(training))
            runner.tally.install()
            try:
                runner.repeat(args.seconds, time.perf_counter(), between=set_up)
            finally:
                runner.tally.restore()
            refs = gauge.samples[first_ref:]
            metrics = end_to_end(runner, median(setup_times), fmean(refs)) if runner.ops else {}
            units = {k: u for k, (u, _) in END_TO_END.items()}
        else:
            start = time.perf_counter()
            runner = Runner(workload, Tally(training))
            runner.tally.install()
            try:
                estimate = runner.one()
            finally:
                runner.tally.restore()
            reference = runner.ops[0] if runner.ops else None
            tracer = Tracer()
            tracer.install(spikesim)
            runner.tally = Tally(training, detail=True)
            runner.tally.install()
            try:
                runner.repeat(args.seconds, start, estimate)
            finally:
                runner.tally.restore()
                tracer.restore()
            refs = gauge.samples[first_ref:]
            ok = reference is not None and len(runner.ops) > 1
            metrics = per_layer(runner, tracer, reference) if ok else {}
            units = {k: u for k, (u, _) in PER_LAYER.items()}
            tracer.write(str(OUT / f"{args.workload}-spans.npz"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = report(args, runner, metrics, units, env, setup_times, refs)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float))
    correct = runner.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": {
                          k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
