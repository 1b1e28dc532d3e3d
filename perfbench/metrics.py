"""Metric names, units, and what each per-layer metric is expected to move.

`END_TO_END` is what `--trace 0` reports and `PER_LAYER` what `--trace 1`
reports, both in the order of BENCHMARK.json. `MOVES` records, before any
optimisation is written, which end-to-end metric and workload each group of
per-layer metrics should move; a perf change cites these entries by name.
"""

from __future__ import annotations

PROJECTIONS = ("input_feat", "feat_inhib", "inhib_feat", "feat_readout", "readout_lateral")
STDP = PROJECTIONS[:3]
RESUME = PROJECTIONS[3:]
LAYERS = ("input", "feature", "inhib", "readout")

# wall_s, pres_per_s, syn_events_per_s, the stage times and the per-mode
# rates are printed too, but kept out of this gated set: the raw times follow
# the host's speed drift (gauge.py), and some exist on only some workloads.
# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),            # inputs, network build, calibration
    "wall_ref": ("ref", "lower"),         # median op time / reference kernel time
    "peak_mem_mb": ("MB", "lower"),
}


def _per_layer() -> dict[str, tuple[str, str]]:
    m: dict[str, tuple[str, str]] = {}

    def span(name: str, *fields: str) -> None:
        for f in fields:
            m[f"{name}.{f}"] = ("count" if f == "calls" else "s", "lower")

    span("cli.main", "calls", "s")
    for stage in ("run_phase1", "monte_carlo_weight_search", "run_phase2", "evaluate"):
        span(f"training.{stage}", "s")
    span("training.present_image", "calls", "s", "self_s")
    span("neuron.step_neuron", "calls", "s")
    span("neuron.deliver_spike", "calls", "s")
    for p in PROJECTIONS:
        span(f"plasticity.connections_by_pre.{p}", "calls", "s")
    for p in STDP:
        span(f"plasticity.connections_by_post.{p}", "calls", "s")
    for p in STDP:
        span(f"plasticity.stdp_on_pre.{p}", "calls", "s")
    for p in STDP:
        span(f"plasticity.stdp_on_post.{p}", "calls", "s")
    span("plasticity.decay_traces", "calls", "s")
    for p in RESUME:
        span(f"plasticity.resume_update.{p}", "calls", "s")
    span("records.from_step_events", "calls", "s")
    span("records.subset", "calls", "s")
    span("topology.copy", "calls", "s")
    span("encoding.calibrate_ik", "s")
    span("encoding.encode_image", "s")
    span("dataio.save_checkpoint", "calls", "s")
    m["dataio.save_checkpoint.bytes"] = ("bytes", "lower")
    # counts taken at the presentation boundary; they repeat exactly
    m["training.presentations"] = ("count", "lower")
    for layer in LAYERS:
        m[f"neuron.spikes.{layer}"] = ("count", "lower")     # per presentation
    m["neuron.silent_step_frac"] = ("fraction", "higher")
    for p in PROJECTIONS:
        m[f"training.syn_events.{p}"] = ("count", "lower")
    for p in PROJECTIONS:
        m[f"plasticity.clip_frac.{p}"] = ("fraction", "lower")
    m["training.frozen_lower.presentations"] = ("count", "lower")
    m["training.frozen_lower.distinct"] = ("count", "lower")
    m["training.frozen_lower.useful_frac"] = ("fraction", "higher")
    # the tracer's own cost and coverage
    m["trace.ops"] = ("count", "higher")
    m["trace.untraced_wall_s"] = ("s", "lower")
    m["trace.traced_wall_s"] = ("s", "lower")
    m["trace.overhead_s"] = ("s", "lower")
    m["trace.top_level_share"] = ("fraction", "higher")
    return m


PER_LAYER = _per_layer()

# per-layer metric (prefix) -> what it should move, on which workload
MOVES = {
    "neuron.step_neuron / neuron.deliver_spike":
        "wall_ref on every workload; most on toy_pipeline, where one call per "
        "step (500 per presentation at its 0.2 ms step) is mostly interpreter "
        "overhead; setup_s on the dense workloads through calibrate_ik",
    "training.present_image.self_s":
        "wall_ref on readout_dense_32 (frozen and phase-2 presentations; self "
        "time holds the step loop and the bincount delivery)",
    "plasticity.connections_by_pre / connections_by_post / stdp_on_pre / "
    "stdp_on_post / decay_traces":
        "wall_ref (the phase1 stage) on stdp_dense_32; the STDP ones read 0 "
        "on readout_dense_32",
    "plasticity.resume_update":
        "wall_ref on readout_dense_32 (phase2 stage); the search and phase2 "
        "stages of wall_ref on toy_pipeline",
    "records.from_step_events / records.subset":
        "wall_ref on readout_dense_32 (frozen presentations)",
    "topology.copy": "the search stage of wall_ref on toy_pipeline",
    "encoding.calibrate_ik / encoding.encode_image / dataio.save_checkpoint":
        "wall_ref on toy_pipeline (calibrate and checkpoint writes); setup_s "
        "on the dense workloads; no engine change is predicted to move them",
    "training.frozen_lower.useful_frac":
        "the share of frozen-lower presentations a feature-raster cache cannot "
        "skip: with a cache, wall_ref on toy_pipeline and readout_dense_32 "
        "should fall towards this share of their frozen-lower work; "
        "stdp_dense_32 has no frozen-lower presentations and must not move",
    "neuron.spikes / neuron.silent_step_frac / training.syn_events / "
    "plasticity.clip_frac":
        "behaviour, not speed: any change to them means the program computes "
        "something else",
}
