"""Command line interface.

Subcommands: calibrate, train, search-weights, test, inspect. All runs are
driven by a flat key=value config file; every random choice is controlled by
seeds in that file, so identical invocations produce identical checkpoints,
reports, and logs. Exit codes: 0 success, 1 usage error, 2 data/format error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import difflib
import logging
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (Dataset, apply_checkpoint, load_cifar10, load_checkpoint,
                     make_synthetic, read_kv, write_atomic, write_kv)
from .encoding import EncodingConfig, calibrate_ik
from .errors import DataFormatError, NumericError, UsageError
from .neuron import NeuronParams
from .topology import PROJECTION_ORDER, NetworkConfig, build_network
from .training import (SimulationConfig, check_labels, evaluate,
                       monte_carlo_weight_search, run_phase1, run_phase2)

logger = logging.getLogger(__name__)

# key -> field, for every field of each config dataclass
_SECTIONS = (
    (NetworkConfig, {("topology_seed" if f.name == "seed" else f.name): f
                     for f in fields(NetworkConfig)}),
    (SimulationConfig, {f.name: f for f in fields(SimulationConfig)}),
    (NeuronParams, {f"neuron_{f.name}": f for f in fields(NeuronParams)}),
)

# keys read where they are used: encoding, weight search, dataset
_OTHER_KEYS = (
    "i_k", "target", "search_seed",
    "dataset", "data_dir", "synth_train_per_class", "synth_test_per_class",
    "synth_noise", "synth_seed", "synth_test_seed", "limit_train", "limit_test",
    "limit_classes",
)

# every key a run config may hold (the README config reference)
CONFIG_KEYS = tuple(k for _, keys in _SECTIONS for k in keys) + _OTHER_KEYS


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions (exit code 1)."""

    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def _parse(key: str, raw: str, cast):
    try:
        if cast is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except ValueError:
        raise DataFormatError(f"config key {key!r}: cannot parse {raw!r}") from None


def _get(cfg: dict[str, str], key: str, default):
    """cfg[key] cast to the type of `default`, or `default` when absent. A
    None default is an unset optional int (shuffle_seed); blank keeps it unset."""
    if key not in cfg:
        return default
    if default is None:
        return _parse(key, cfg[key], int) if cfg[key] else None
    return _parse(key, cfg[key], type(default))


def load_run_config(path: str | Path):
    """Build the typed configs from a key=value file; unknown keys are
    rejected, so a misspelt key cannot fall back to its default."""
    cfg = read_kv(path)
    for key in cfg:
        if key not in CONFIG_KEYS:
            close = difflib.get_close_matches(key, CONFIG_KEYS, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise DataFormatError(f"{path}: unknown config key {key!r}{hint}")
    net_cfg, sim_cfg, params = (
        cls(**{f.name: _get(cfg, key, f.default) for key, f in keys.items()})
        for cls, keys in _SECTIONS)
    return cfg, net_cfg, sim_cfg, params


def _encoding_config(cfg: dict[str, str]) -> EncodingConfig:
    if "i_k" not in cfg:
        raise DataFormatError(
            "config has no i_k; run `spikesim calibrate` first")
    return EncodingConfig(I_K=_parse("i_k", cfg["i_k"], float),
                          target=_get(cfg, "target", EncodingConfig.target))


def _size(cfg: dict[str, str], key: str) -> int:
    """A count where 0 means no limit; a negative one would slice from the end."""
    n = _get(cfg, key, 0)
    if n < 0:
        raise DataFormatError(f"config key {key!r} must be non-negative, got {n}")
    return n


def resolve_dataset(cfg: dict[str, str], net_cfg: NetworkConfig, split: str,
                    data_dir: str | None) -> Dataset:
    kind = cfg.get("dataset", "synthetic")
    if kind == "cifar10":
        root = data_dir or cfg.get("data_dir")
        if not root:
            raise UsageError("cifar10 dataset needs --data or a data_dir config key")
        ds = load_cifar10(root, split=split)
        limit = _size(cfg, f"limit_{split}")
        classes = _size(cfg, "limit_classes")
        if classes:
            ds = Dataset(samples=[s for s in ds.samples if s.label < classes],
                         n_classes=classes,
                         class_names=ds.class_names[:classes])
        if limit:
            ds = Dataset(samples=ds.samples[:limit], n_classes=ds.n_classes,
                         class_names=ds.class_names)
        return ds
    if kind == "synthetic":
        per_class = _get(cfg, f"synth_{split}_per_class", 50 if split == "train" else 20)
        seed = _get(cfg, "synth_seed", 1)
        if split == "test":
            seed = _get(cfg, "synth_test_seed", seed + 1)
        return make_synthetic(
            n_classes=net_cfg.n_classes, rows=net_cfg.rows, cols=net_cfg.cols,
            samples_per_class=per_class,
            noise=_get(cfg, "synth_noise", 0.03), seed=seed)
    raise DataFormatError(f"unknown dataset kind {kind!r}")


def _write_manifest(out_dir: Path, cfg: dict[str, str], net_cfg: NetworkConfig,
                    sim: SimulationConfig, enc: EncodingConfig,
                    dataset: Dataset, phase: int) -> None:
    """Resolved run parameters, recorded after the input checks, before training."""
    out_dir.mkdir(parents=True, exist_ok=True)
    items: dict[str, object] = {"tool_version": __version__, "phase": phase,
                                "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    items.update({f"net_{k}": v for k, v in sorted(asdict(net_cfg).items())})
    items.update({f"sim_{k}": v for k, v in sorted(asdict(sim).items())})
    items.update({f"enc_{k}": v for k, v in sorted(asdict(enc).items())})
    items["dataset_kind"] = cfg.get("dataset", "synthetic")
    items["dataset_size"] = len(dataset)
    items["dataset_fingerprint"] = dataset.fingerprint()
    items["topology_fingerprint"] = net_cfg.fingerprint()
    write_kv(out_dir / f"manifest_phase{phase}.txt", items)


def cmd_calibrate(args) -> int:
    cfg, net_cfg, sim, params = load_run_config(args.config)
    target = _get(cfg, "target", EncodingConfig.target)
    ik = calibrate_ik(params, window=sim.window, target=target, dt=sim.dt)
    print(f"I_K = {ik:.1f} pA ({target} spikes / {sim.window:g} ms, dt={sim.dt:g})")
    if not args.no_write:
        cfg["i_k"] = f"{ik:.1f}"
        write_kv(args.config, cfg)
        logger.info("wrote i_k back to %s", args.config)
    return 0


def cmd_train(args) -> int:
    cfg, net_cfg, sim, params = load_run_config(args.config)
    enc = _encoding_config(cfg)
    dataset = resolve_dataset(cfg, net_cfg, "train", args.data)
    net = build_network(net_cfg, params)
    out_dir = Path(args.out)
    start = 0
    if args.phase == 2 and not args.from_checkpoint:
        raise UsageError("train --phase 2 requires --from-checkpoint "
                         "(the phase 1 result)")
    if args.from_checkpoint:
        ckpt = load_checkpoint(args.from_checkpoint)
        if ckpt.phase == args.phase:
            apply_checkpoint(net, ckpt)          # resume mid-phase
            start = ckpt.presentations
        elif ckpt.phase == 1 and args.phase == 2:
            # phase handoff: only the feature-path weights carry over
            apply_checkpoint(net, ckpt,
                             projections=("input_feat", "feat_inhib", "inhib_feat"))
        else:
            raise DataFormatError(
                f"cannot start phase {args.phase} from a phase {ckpt.phase} checkpoint")
    if args.phase == 2:
        check_labels(net, dataset)
    _write_manifest(out_dir, cfg, net_cfg, sim, enc, dataset, args.phase)
    if args.phase == 1:
        result = run_phase1(net, dataset, sim, enc, out_dir, start_presentation=start)
    else:
        result = run_phase2(net, dataset, sim, enc, out_dir, start_presentation=start)
    final = result.checkpoints[-1] if result.checkpoints else None
    print(f"phase {args.phase} done: {len(result.checkpoints)} checkpoints in {out_dir}")
    if final:
        print(f"final checkpoint: {final}")
    return 0


def cmd_search_weights(args) -> int:
    if args.subset < 0:
        raise UsageError(f"--subset must be non-negative, got {args.subset}")
    cfg, net_cfg, sim, params = load_run_config(args.config)
    enc = _encoding_config(cfg)
    dataset = resolve_dataset(cfg, net_cfg, "train", args.data)
    subset_n = args.subset if args.subset else min(500, len(dataset))
    subset = Dataset(samples=dataset.samples[:subset_n], n_classes=dataset.n_classes,
                     class_names=dataset.class_names)
    net = build_network(net_cfg, params)
    ckpt = load_checkpoint(args.from_checkpoint)
    if ckpt.phase != 1:
        raise DataFormatError("search-weights needs a phase 1 checkpoint")
    apply_checkpoint(net, ckpt,
                     projections=("input_feat", "feat_inhib", "inhib_feat"))
    result = monte_carlo_weight_search(
        net, (args.lo, args.hi), args.trials, subset, sim, enc,
        seed=_get(cfg, "search_seed", sim.seed))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ranked = sorted(result.trials, key=lambda t: (-t.accuracy, t.weight))
    lines = [f"{t.weight:.6f}\t{t.accuracy:.6f}" for t in ranked]
    write_atomic(out_dir / "weight_search.tsv",
                 ("weight\taccuracy\n" + "\n".join(lines) + "\n").encode())
    for t in result.trials:
        print(f"trial: weight={t.weight:.3f} accuracy={t.accuracy:.4f}")
    print(f"best initial weight: {result.best_weight:.3f}")
    if args.write:
        cfg["w_feat_readout"] = f"{result.best_weight!r}"
        write_kv(args.config, cfg)
    return 0


def cmd_test(args) -> int:
    cfg, net_cfg, sim, params = load_run_config(args.config)
    enc = _encoding_config(cfg)
    dataset = resolve_dataset(cfg, net_cfg, "test", args.data)
    net = build_network(net_cfg, params)
    apply_checkpoint(net, load_checkpoint(args.checkpoint))
    report = evaluate(net, dataset, sim, enc)
    print(report.render())
    return 0


def cmd_inspect(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    print(f"checkpoint version : {ckpt.version}")
    print(f"topology hash      : {ckpt.fingerprint}")
    print(f"phase              : {ckpt.phase}")
    print(f"presentations      : {ckpt.presentations}")
    for name in PROJECTION_ORDER:
        w = ckpt.weights[name]
        if w.size == 0:
            print(f"{name:<16}: empty")
            continue
        hist, edges = np.histogram(w, bins=10)
        bar = " ".join(str(int(c)) for c in hist)
        print(f"{name:<16}: n={w.size} mean={w.mean():.3f} "
              f"min={w.min():.3f} max={w.max():.3f}")
        print(f"{'':<16}  hist[{edges[0]:.1f}..{edges[-1]:.1f}] = {bar}")
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="spikesim",
                description="Spiking-network image classifier: calibrate, "
                            "train (two phases), search initial weights, test.")
    p.add_argument("--version", action="version", version=f"spikesim {__version__}")
    p.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("calibrate", help="find I_K and write it into the config")
    c.add_argument("--config", required=True)
    c.add_argument("--no-write", action="store_true",
                   help="print I_K without updating the config file")
    c.set_defaults(fn=cmd_calibrate)

    t = sub.add_parser("train", help="run one training phase")
    t.add_argument("--phase", type=int, choices=(1, 2), required=True)
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True, help="checkpoint/log directory")
    t.add_argument("--data", help="CIFAR-10 binary batch directory")
    t.add_argument("--from-checkpoint", help="resume point or phase-1 handoff")
    t.set_defaults(fn=cmd_train)

    s = sub.add_parser("search-weights",
                       help="Monte Carlo search for the readout initial weight")
    s.add_argument("--config", required=True)
    s.add_argument("--from-checkpoint", required=True, help="phase 1 checkpoint")
    s.add_argument("--out", required=True)
    s.add_argument("--data")
    s.add_argument("--lo", type=float, default=50.0)
    s.add_argument("--hi", type=float, default=600.0)
    s.add_argument("--trials", type=int, default=20)
    s.add_argument("--subset", type=int, default=0,
                   help="eval subset size (default min(500, dataset))")
    s.add_argument("--write", action="store_true",
                   help="write the best weight into the config file")
    s.set_defaults(fn=cmd_search_weights)

    e = sub.add_parser("test", help="evaluate a checkpoint on the test split")
    e.add_argument("--config", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data")
    e.set_defaults(fn=cmd_test)

    i = sub.add_parser("inspect", help="print checkpoint metadata and weight stats")
    i.add_argument("--checkpoint", required=True)
    i.set_defaults(fn=cmd_inspect)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s")
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (DataFormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
