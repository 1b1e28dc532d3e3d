"""Command-line interface: the full train/search/test flow on a tiny network,
config handling, manifests, and exit codes."""

from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from spikesim import (NetworkConfig, NeuronParams, SimulationConfig,
                      build_network, save_checkpoint)
from spikesim import cli
from spikesim.cli import (CONFIG_KEYS, _encoding_config, load_run_config, main,
                          resolve_dataset)
from spikesim.dataio import (apply_checkpoint, checkpoint_from_network, load_checkpoint,
                             read_kv, write_kv)
from spikesim.training import evaluate

from conftest import I_K_DEFAULT, fail_writes
from test_dataio import cifar_record, write_cifar_dir

TINY = {
    "dataset": "synthetic",
    "rows": 4, "cols": 4, "n_classes": 2, "neurons_per_class": 2,
    "topology_seed": 5, "seed": 5,
    "epochs_phase1": 1, "epochs_phase2": 1, "checkpoint_interval": 100,
    "synth_train_per_class": 2, "synth_test_per_class": 1,
    "synth_noise": 0.03, "synth_seed": 11, "synth_test_seed": 12,
}


def write_cfg(path, **extra):
    items = dict(TINY)
    if extra.get("dataset") == "cifar10":
        # the synth_* keys apply to the synthetic dataset only
        items = {k: v for k, v in items.items() if not k.startswith("synth_")}
    items.update(extra)
    write_kv(path, items)
    return str(path)


@pytest.fixture
def cfg_path(tmp_path):
    return write_cfg(tmp_path / "run.cfg", i_k=I_K_DEFAULT)


def test_calibrate_writes_ik(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "run.cfg")
    assert main(["calibrate", "--config", cfg]) == 0
    assert float(read_kv(cfg)["i_k"]) == I_K_DEFAULT
    assert "797.4" in capsys.readouterr().out


def test_calibrate_no_write(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "run.cfg")
    assert main(["calibrate", "--config", cfg, "--no-write"]) == 0
    assert "i_k" not in read_kv(cfg)


def test_failed_calibrate_write_keeps_config(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path / "run.cfg")
    before = (tmp_path / "run.cfg").read_bytes()
    fail_writes(monkeypatch)
    assert main(["calibrate", "--config", cfg]) == 2
    monkeypatch.undo()
    assert (tmp_path / "run.cfg").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_duplicate_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text(f"i_k = {I_K_DEFAULT}\nepochs_phase1 = 5\nepochs_phase1 = 1\n")
    assert main(["train", "--phase", "1", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "duplicate key 'epochs_phase1'" in err and "line 2" in err and ":3:" in err
    assert not (tmp_path / "o").exists()


# the README's toy.cfg layout: a title comment, inline comments, a blank line
COMMENTED_CFG = """# toy.cfg
rows = 4
cols = 4   # input grid
n_classes = 2
neurons_per_class = 2

topology_seed = 5  # wiring
synth_train_per_class = 2
"""


def test_config_rewrites_keep_every_other_line(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(COMMENTED_CFG)
    assert main(["calibrate", "--config", str(path)]) == 0
    assert path.read_text() == COMMENTED_CFG + f"i_k = {I_K_DEFAULT}\n"

    net = build_network(load_run_config(path)[1])
    ckpt = tmp_path / "p1.bin"
    save_checkpoint(checkpoint_from_network(net, 1, 0), ckpt)
    assert main(["search-weights", "--config", str(path), "--from-checkpoint",
                 str(ckpt), "--out", str(tmp_path / "o"), "--trials", "1",
                 "--write"]) == 0
    w = read_kv(path)["w_feat_readout"]
    assert path.read_text() == COMMENTED_CFG + f"i_k = {I_K_DEFAULT}\nw_feat_readout = {w}\n"

    # a key already present is rewritten in place, its comment kept
    lines = path.read_text().splitlines(keepends=True)
    lines[-2] = "i_k = 1.0  # calibrated\n"
    path.write_text("".join(lines))
    assert main(["calibrate", "--config", str(path)]) == 0
    lines[-2] = f"i_k = {I_K_DEFAULT}  # calibrated\n"
    assert path.read_text() == "".join(lines)


def test_unknown_config_key_names_the_closest(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg", i_k=I_K_DEFAULT, epoch_phase1=3)
    assert main(["train", "--phase", "1", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'epoch_phase1'" in err and "'epochs_phase1'" in err
    assert not (tmp_path / "o").exists()


# one value for every key of the README config reference, but data_dir, which
# applies to the cifar10 dataset only (CIFAR_KEYS)
EVERY_KEY = {
    "rows": 4, "cols": 4, "n_classes": 2, "neurons_per_class": 2,
    "feature_fraction": 0.25, "topology_seed": 5,
    "w_input_feat": 600.0, "w_feat_inhib": 490.84, "w_inhib_feat": -100.0,
    "w_feat_readout": 241.0, "w_readout_lateral": -120.0, "weight_jitter": 0.1,
    "feat_readout_partitioned": "false", "train_readout_lateral": "true",
    "dt": 0.1, "window": 100.0, "epochs_phase1": 2, "epochs_phase2": 3,
    "checkpoint_interval": 100, "shuffle_seed": 4, "seed": 5, "search_seed": 6,
    "i_k": I_K_DEFAULT, "target": 10,
    "dataset": "synthetic", "synth_train_per_class": 2,
    "synth_test_per_class": 1, "synth_noise": 0.03, "synth_seed": 11,
    "synth_test_seed": 12, "limit_train": 0, "limit_test": 0, "limit_classes": 0,
    **{f"neuron_{k}": v for k, v in vars(NeuronParams()).items()},
}


# the keys of a cifar10 config, with the dataset keys both kinds take
CIFAR_KEYS = {"dataset": "cifar10", "data_dir": "cifar", "limit_train": 0,
              "limit_test": 0, "limit_classes": 0}


def test_every_documented_key_loads(tmp_path):
    assert set(EVERY_KEY) | set(CIFAR_KEYS) == set(CONFIG_KEYS)
    path = tmp_path / "all.cfg"
    write_kv(path, EVERY_KEY)
    cfg, net_cfg, sim, params = load_run_config(path)
    assert (net_cfg.rows, net_cfg.seed, sim.epochs_phase2, sim.shuffle_seed) == (4, 5, 3, 4)
    assert params == NeuronParams()
    assert len(resolve_dataset(cfg, net_cfg, "test", None)) == 2
    # the CIFAR keys in a config of their own, on a one-record test batch
    (tmp_path / "cifar").mkdir()
    (tmp_path / "cifar" / "test_batch.bin").write_bytes(cifar_record(7))
    path = tmp_path / "cifar.cfg"
    write_kv(path, {**CIFAR_KEYS, "data_dir": tmp_path / "cifar"})
    cfg, net_cfg, _, _ = load_run_config(path)
    assert [s.label for s in resolve_dataset(cfg, net_cfg, "test", None)] == [7]


def test_readme_config_reference_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Config reference\n", 1)[1].split("\n## ", 1)[0]
    assert [key for key in CONFIG_KEYS if f"`{key}`" not in section] == []


def test_config_with_only_ik_loads_the_defaults(tmp_path):
    path = tmp_path / "c.cfg"
    write_kv(path, {"i_k": I_K_DEFAULT})
    cfg, net_cfg, sim, params = load_run_config(path)
    assert net_cfg == NetworkConfig()
    assert sim == SimulationConfig()
    assert params == NeuronParams()


def test_blank_shuffle_seed_is_unset(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", shuffle_seed="")
    assert read_kv(cfg)["shuffle_seed"] == ""
    assert load_run_config(cfg)[2].shuffle_seed is None


def test_full_flow(tmp_path, cfg_path, capsys):
    out = str(tmp_path / "run")
    assert main(["train", "--phase", "1", "--config", cfg_path, "--out", out]) == 0
    final1 = tmp_path / "run" / "ckpt_phase1_final.bin"
    assert final1.exists()
    assert (tmp_path / "run" / "manifest_phase1.txt").exists()
    manifest = read_kv(tmp_path / "run" / "manifest_phase1.txt")
    assert manifest["net_rows"] == "4"
    assert manifest["dataset_kind"] == "synthetic"
    assert "topology_fingerprint" in manifest

    assert main(["search-weights", "--config", cfg_path,
                 "--from-checkpoint", str(final1), "--out", out,
                 "--lo", "100", "--hi", "400", "--trials", "2",
                 "--write"]) == 0
    assert (tmp_path / "run" / "weight_search.tsv").exists()
    assert "w_feat_readout" in read_kv(cfg_path)

    assert main(["train", "--phase", "2", "--config", cfg_path,
                 "--from-checkpoint", str(final1), "--out", out]) == 0
    final2 = tmp_path / "run" / "ckpt_phase2_final.bin"
    assert load_checkpoint(final2).phase == 2

    capsys.readouterr()
    assert main(["test", "--config", cfg_path, "--checkpoint", str(final2)]) == 0
    report = capsys.readouterr().out
    assert "overall" in report and "class_0" in report

    assert main(["inspect", "--checkpoint", str(final2)]) == 0
    assert "feat_readout" in capsys.readouterr().out


def test_phase1_rerun_byte_identical(tmp_path, cfg_path):
    assert main(["train", "--phase", "1", "--config", cfg_path,
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["train", "--phase", "1", "--config", cfg_path,
                 "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "ckpt_phase1_final.bin").read_bytes()
    b = (tmp_path / "b" / "ckpt_phase1_final.bin").read_bytes()
    assert a == b


def test_phase2_needs_checkpoint(tmp_path, cfg_path):
    code = main(["train", "--phase", "2", "--config", cfg_path,
                 "--out", str(tmp_path / "x")])
    assert code == 1


def test_usage_errors_exit_1(tmp_path):
    assert main(["no-such-command"]) == 1
    assert main(["train", "--config", "x"]) == 1          # missing --phase/--out
    cfg = write_cfg(tmp_path / "c.cfg", dataset="cifar10", i_k=I_K_DEFAULT)
    assert main(["train", "--phase", "1", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 1      # cifar10 without data dir


def test_workers_option_removed(cfg_path):
    assert main(["test", "--config", cfg_path, "--checkpoint", "ck.bin",
                 "--workers", "2"]) == 1


def test_data_errors_exit_2(tmp_path, cfg_path):
    assert main(["train", "--phase", "1", "--config",
                 str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage")
    assert main(["test", "--config", cfg_path, "--checkpoint", str(bad)]) == 2
    assert main(["inspect", "--checkpoint", str(bad)]) == 2


def test_numeric_errors_exit_3(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", target=60)   # impossible with t_ref=2
    assert main(["calibrate", "--config", cfg]) == 3


def test_calibrating_a_neuron_that_fires_at_rest_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg", neuron_omega=-75)   # below E_L = -70
    assert main(["calibrate", "--config", cfg]) == 3
    assert "at 0 pA is 5, not 0" in capsys.readouterr().err
    assert "i_k" not in read_kv(cfg)


def test_missing_ik_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg")   # no i_k key
    assert main(["train", "--phase", "1", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2


def untrained_phase1_checkpoint(cfg, path):
    _, net_cfg, _, params = load_run_config(cfg)
    save_checkpoint(checkpoint_from_network(build_network(net_cfg, params), 1, 0), path)
    return str(path)


def cifar_cfg(tmp_path, **extra):
    """A 32x32 two-class run on fake CIFAR batches labelled 1..5 (test: 7),
    and a phase-1 checkpoint of its network."""
    data = tmp_path / "cifar"
    data.mkdir()
    write_cifar_dir(data, per_batch=1)
    cfg = write_cfg(tmp_path / "c.cfg", dataset="cifar10", data_dir=data,
                    rows=32, cols=32, i_k=I_K_DEFAULT, **extra)
    return cfg, untrained_phase1_checkpoint(cfg, tmp_path / "p1.bin")


def test_labels_beyond_n_classes_exit_2(tmp_path, capsys):
    cfg, ckpt = cifar_cfg(tmp_path)
    assert main(["train", "--phase", "2", "--config", cfg,
                 "--from-checkpoint", ckpt, "--out", str(tmp_path / "o")]) == 2
    assert "label 2" in capsys.readouterr().err
    assert not (tmp_path / "o" / "ckpt_phase2_final.bin").exists()
    assert not (tmp_path / "o" / "manifest_phase2.txt").exists()
    assert main(["test", "--config", cfg, "--checkpoint", ckpt]) == 2
    assert "label 7" in capsys.readouterr().err


def evaluate_checkpoint(cfg, ckpt):
    """The report that `test` prints for `ckpt`, computed without the CLI."""
    cfg_kv, net_cfg, sim, params = load_run_config(cfg)
    net = build_network(net_cfg, params)
    apply_checkpoint(net, load_checkpoint(ckpt))
    return evaluate(net, resolve_dataset(cfg_kv, net_cfg, "test", None), sim,
                    _encoding_config(cfg_kv))


def test_test_warns_on_stderr_of_a_phase1_checkpoint_and_its_ties(tmp_path, cfg_path, capsys):
    ckpt = untrained_phase1_checkpoint(cfg_path, tmp_path / "p1.bin")
    report = evaluate_checkpoint(cfg_path, ckpt)
    # the untrained readout stays silent: every prediction is a tie
    assert report.ties == report.n_samples > 0
    assert main(["test", "--config", cfg_path, "--checkpoint", ckpt]) == 0
    out, err = capsys.readouterr()
    assert out == report.render() + "\n"
    assert err.splitlines() == [
        f"warning: {ckpt} is a phase-1 checkpoint: its readout is not trained yet, "
        "so expect chance accuracy",
        f"warning: {report.ties} of {report.n_samples} predictions were ties, "
        "each resolved to the lowest class index"]


def test_test_warns_of_ties_only_when_there_are_some(tmp_path, cfg_path, capsys, monkeypatch):
    _, net_cfg, _, params = load_run_config(cfg_path)
    ckpt = tmp_path / "p2.bin"
    save_checkpoint(checkpoint_from_network(build_network(net_cfg, params), 2, 0), ckpt)
    report = evaluate_checkpoint(cfg_path, ckpt)
    for ties in (0, 1):
        monkeypatch.setattr(cli, "evaluate", lambda *args: replace(report, ties=ties))
        assert main(["test", "--config", cfg_path, "--checkpoint", str(ckpt)]) == 0
        out, err = capsys.readouterr()
        assert out == report.render() + "\n"
        assert err == ("" if ties == 0 else f"warning: 1 of {report.n_samples} predictions "
                       "were ties, each resolved to the lowest class index\n")


def test_negative_subset_is_usage_error(tmp_path, cfg_path, capsys):
    ckpt = untrained_phase1_checkpoint(cfg_path, tmp_path / "p1.bin")
    assert main(["search-weights", "--config", cfg_path, "--from-checkpoint",
                 ckpt, "--out", str(tmp_path / "o"), "--trials", "1",
                 "--subset", "-3"]) == 1
    assert "--subset" in capsys.readouterr().err


def test_subset_beyond_the_training_set_is_usage_error(tmp_path, cfg_path, capsys):
    # scoring fewer images than asked for would change the search unseen
    cfg, net_cfg, _, _ = load_run_config(cfg_path)
    n = len(resolve_dataset(cfg, net_cfg, "train", None))
    ckpt = untrained_phase1_checkpoint(cfg_path, tmp_path / "p1.bin")
    assert main(["search-weights", "--config", cfg_path, "--from-checkpoint",
                 ckpt, "--out", str(tmp_path / "o"), "--trials", "1",
                 "--subset", str(n + 1)]) == 1
    err = capsys.readouterr().err
    assert f"--subset {n + 1} exceeds the {n} training images" in err
    assert not (tmp_path / "o" / "weight_search.tsv").exists()


def test_negative_limits_are_data_errors(tmp_path, capsys):
    cfg, ckpt = cifar_cfg(tmp_path, limit_train=-3, limit_test=-1)
    assert main(["train", "--phase", "1", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "'limit_train'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert main(["test", "--config", cfg, "--checkpoint", ckpt]) == 2
    assert "'limit_test'" in capsys.readouterr().err


def test_infinite_ik_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg", i_k="inf")
    assert main(["train", "--phase", "1", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "I_K" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest_phase1.txt").exists()


# (config key, field name) of every float field of the three config classes
FLOAT_KEYS = [(prefix + f.name, f.name)
              for cls, prefix in ((NetworkConfig, ""), (SimulationConfig, ""),
                                  (NeuronParams, "neuron_"))
              for f in fields(cls) if isinstance(f.default, float)]


@pytest.mark.parametrize("key, name", FLOAT_KEYS, ids=[k for k, _ in FLOAT_KEYS])
def test_non_finite_config_float_is_a_config_error(tmp_path, capsys, key, name):
    cfg = write_cfg(tmp_path / "c.cfg", i_k=I_K_DEFAULT, **{key: "inf"})
    assert main(["train", "--phase", "1", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert f"{name} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bad", [["--trials", "0"], ["--lo", "600", "--hi", "50"],
                                 ["--lo", "-5"], ["--hi", "inf"], ["--lo", "nan"],
                                 ["--subset", "-3"]])
def test_bad_search_arguments_are_usage_errors(tmp_path, cfg_path, capsys, bad):
    # checked before the dataset or the checkpoint is read
    assert main(["search-weights", "--config", cfg_path, "--from-checkpoint",
                 str(tmp_path / "missing.bin"), "--out", str(tmp_path / "o"),
                 *bad]) == 1
    assert bad[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_limits_apply_to_synthetic_data(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", i_k=I_K_DEFAULT, n_classes=3,
                    limit_train=2, limit_classes=2)
    assert main(["train", "--phase", "1", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0
    assert read_kv(tmp_path / "o" / "manifest_phase1.txt")["dataset_size"] == "2"
    cfg, net_cfg, _, _ = load_run_config(cfg)
    train = resolve_dataset(cfg, net_cfg, "train", None)
    assert (len(train), train.n_classes) == (2, 2)
    assert train.labels().tolist() == [0, 1]
    test = resolve_dataset(cfg, net_cfg, "test", None)
    assert sorted(set(test.labels().tolist())) == [0, 1]


@pytest.mark.parametrize("key", [k for k in CONFIG_KEYS if k.endswith("seed")])
def test_negative_seed_is_a_config_error(tmp_path, capsys, key):
    # refused by name as the config loads, before a manifest is written
    cfg = write_cfg(tmp_path / "c.cfg", i_k=I_K_DEFAULT, **{key: -1})
    assert main(["train", "--phase", "1", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert f"config key {key!r} must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_configs_refuse_a_negative_seed_by_name():
    with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
        NetworkConfig(seed=-3)
    with pytest.raises(ValueError, match="shuffle_seed must be non-negative, got -1"):
        SimulationConfig(shuffle_seed=-1)


@pytest.mark.parametrize("key, w", [("w_input_feat", -1.0), ("w_feat_inhib", -1.0),
                                    ("w_inhib_feat", 1.0), ("w_feat_readout", -1.0),
                                    ("w_readout_lateral", 1.0)])
def test_wrong_signed_mean_weight_is_refused_by_name(tmp_path, capsys, key, w):
    with pytest.raises(ValueError, match=f"{key} must be non-"):
        NetworkConfig(**{key: w})
    cfg = write_cfg(tmp_path / "c.cfg", i_k=I_K_DEFAULT, **{key: w})
    assert main(["train", "--phase", "1", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert f"{key} must be non-" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def command_argv(command, ckpt, out):
    """The arguments of a `train --phase 1`, `search-weights` or `test` run,
    but its config."""
    return {"train": ["train", "--phase", "1", "--out", out],
            "search-weights": ["search-weights", "--from-checkpoint", ckpt, "--out", out],
            "test": ["test", "--checkpoint", ckpt]}[command]


@pytest.mark.parametrize("command", ["train", "search-weights", "test"])
def test_data_flag_on_a_synthetic_config_is_a_usage_error(tmp_path, cfg_path, capsys,
                                                          command):
    # refused before anything is written, rather than ignored
    ckpt = untrained_phase1_checkpoint(cfg_path, tmp_path / "p1.bin")
    argv = command_argv(command, ckpt, str(tmp_path / "o"))
    assert main([*argv, "--config", cfg_path, "--data", str(tmp_path / "missing")]) == 1
    assert "--data applies to the cifar10 dataset only" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "search-weights", "test"])
@pytest.mark.parametrize("key", ["data_dir", "synth_train_per_class", "synth_test_per_class",
                                 "synth_noise", "synth_seed", "synth_test_seed"])
def test_a_key_of_the_other_dataset_kind_is_a_data_error(tmp_path, capsys, command, key):
    # data_dir on a synthetic config, a synth_* key on a cifar10 one: refused
    # by name before anything is written, rather than ignored
    if key == "data_dir":
        cfg = write_cfg(tmp_path / "c.cfg", i_k=I_K_DEFAULT, data_dir=tmp_path / "cifar")
    else:
        cfg = write_cfg(tmp_path / "c.cfg", i_k=I_K_DEFAULT, dataset="cifar10",
                        data_dir=tmp_path / "cifar", **{key: TINY[key]})
    ckpt = untrained_phase1_checkpoint(cfg, tmp_path / "p1.bin")
    assert main([*command_argv(command, ckpt, str(tmp_path / "o")), "--config", cfg]) == 2
    kind = "cifar10" if key == "data_dir" else "synthetic"
    assert f"config key {key!r} applies to the {kind} dataset only" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_limit_classes_above_the_class_count_is_a_data_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg", i_k=I_K_DEFAULT, limit_classes=5)
    ckpt = untrained_phase1_checkpoint(cfg, tmp_path / "p1.bin")
    assert main(["test", "--config", cfg, "--checkpoint", ckpt]) == 2
    assert "'limit_classes' is 5" in capsys.readouterr().err
    assert main(["train", "--phase", "1", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "'limit_classes' is 5" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # every class of the dataset is still a valid limit
    cfg, net_cfg, _, _ = load_run_config(write_cfg(tmp_path / "c.cfg", limit_classes=2))
    assert resolve_dataset(cfg, net_cfg, "test", None).n_classes == 2
