"""Command-line interface: the full train/search/test flow on a tiny network,
config handling, manifests, and exit codes."""

import numpy as np
import pytest

from spikesim import (NetworkConfig, NeuronParams, SimulationConfig,
                      build_network, save_checkpoint)
from spikesim.cli import CONFIG_KEYS, load_run_config, main, resolve_dataset
from spikesim.dataio import (checkpoint_from_network, load_checkpoint, read_kv,
                             write_kv)

from conftest import I_K_DEFAULT, fail_writes
from test_dataio import write_cifar_dir

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


def test_unknown_config_key_names_the_closest(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg", i_k=I_K_DEFAULT, epoch_phase1=3)
    assert main(["train", "--phase", "1", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'epoch_phase1'" in err and "'epochs_phase1'" in err
    assert not (tmp_path / "o").exists()


# one value for every key of the README config reference
EVERY_KEY = {
    "rows": 4, "cols": 4, "n_classes": 2, "neurons_per_class": 2,
    "feature_fraction": 0.25, "topology_seed": 5,
    "w_input_feat": 600.0, "w_feat_inhib": 490.84, "w_inhib_feat": -100.0,
    "w_feat_readout": 241.0, "w_readout_lateral": -120.0, "weight_jitter": 0.1,
    "feat_readout_partitioned": "false", "train_readout_lateral": "true",
    "dt": 0.1, "window": 100.0, "epochs_phase1": 2, "epochs_phase2": 3,
    "checkpoint_interval": 100, "shuffle_seed": 4, "seed": 5, "search_seed": 6,
    "i_k": I_K_DEFAULT, "target": 10,
    "dataset": "synthetic", "data_dir": "cifar", "synth_train_per_class": 2,
    "synth_test_per_class": 1, "synth_noise": 0.03, "synth_seed": 11,
    "synth_test_seed": 12, "limit_train": 0, "limit_test": 0, "limit_classes": 0,
    **{f"neuron_{k}": v for k, v in vars(NeuronParams()).items()},
}


def test_every_documented_key_loads(tmp_path):
    assert set(EVERY_KEY) == set(CONFIG_KEYS)
    path = tmp_path / "all.cfg"
    write_kv(path, EVERY_KEY)
    cfg, net_cfg, sim, params = load_run_config(path)
    assert (net_cfg.rows, net_cfg.seed, sim.epochs_phase2, sim.shuffle_seed) == (4, 5, 3, 4)
    assert params == NeuronParams()
    assert len(resolve_dataset(cfg, net_cfg, "test", None)) == 2


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


def test_negative_subset_is_usage_error(tmp_path, cfg_path, capsys):
    ckpt = untrained_phase1_checkpoint(cfg_path, tmp_path / "p1.bin")
    assert main(["search-weights", "--config", cfg_path, "--from-checkpoint",
                 ckpt, "--out", str(tmp_path / "o"), "--trials", "1",
                 "--subset", "-3"]) == 1
    assert "--subset" in capsys.readouterr().err


def test_negative_limits_are_data_errors(tmp_path, capsys):
    cfg, ckpt = cifar_cfg(tmp_path, limit_train=-3, limit_test=-1)
    assert main(["train", "--phase", "1", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "'limit_train'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert main(["test", "--config", cfg, "--checkpoint", ckpt]) == 2
    assert "'limit_test'" in capsys.readouterr().err
