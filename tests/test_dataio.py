"""Datasets, CIFAR-10 binary loading, checkpoint serialization, and the flat
key=value config format."""

import struct
from pathlib import Path

import numpy as np
import pytest

from spikesim import (Dataset, ImageSample, NetworkConfig, build_network,
                      load_checkpoint, save_checkpoint)
from spikesim.dataio import (CHECKPOINT_VERSION, TEMPLATE_LEVELS,
                             apply_checkpoint, checkpoint_from_network,
                             class_templates, grayscale, load_cifar10,
                             make_synthetic, read_kv, set_kv, write_kv)
from spikesim.errors import DataFormatError
from spikesim.topology import PROJECTION_ORDER

RECORD = 3073


def cifar_record(label, r=10, g=20, b=30):
    rec = bytearray([label])
    rec += bytes([r]) * 1024 + bytes([g]) * 1024 + bytes([b]) * 1024
    return bytes(rec)


def write_cifar_dir(tmp_path, per_batch=2):
    for i in range(1, 6):
        recs = b"".join(cifar_record((i + j) % 10) for j in range(per_batch))
        (tmp_path / f"data_batch_{i}.bin").write_bytes(recs)
    (tmp_path / "test_batch.bin").write_bytes(cifar_record(7))
    return tmp_path


# -- synthetic data -------------------------------------------------------------


def test_templates_distinct_and_sparse():
    t = class_templates(3, 8, 8)
    assert t.shape == (3, 8, 8)
    for k in range(3):
        active = t[k] > 0
        assert active.sum() == 2
        assert sorted(t[k][active].tolist()) == sorted(TEMPLATE_LEVELS)
    # classes occupy disjoint pixels
    assert not np.any((t[0] > 0) & (t[1] > 0))
    assert not np.any((t[0] > 0) & (t[2] > 0))
    assert not np.any((t[1] > 0) & (t[2] > 0))


def test_templates_ten_classes_default_grid():
    t = class_templates(10, 32, 32)
    assert t.shape == (10, 32, 32)
    for a in range(10):
        for b in range(a + 1, 10):
            assert not np.array_equal(t[a], t[b])


def test_templates_too_small_rejected():
    with pytest.raises(ValueError):
        class_templates(10, 4, 4)


def test_make_synthetic_shape_and_interleaving():
    ds = make_synthetic(3, 8, 8, samples_per_class=4, noise=0.03, seed=11)
    assert len(ds) == 12
    assert ds.labels().tolist() == [0, 1, 2] * 4
    for s in ds:
        assert s.pixels.shape == (8, 8)
        assert s.pixels.min() >= 0.0 and s.pixels.max() <= 1.0


def test_make_synthetic_deterministic():
    a = make_synthetic(2, 4, 4, 3, noise=0.05, seed=7)
    b = make_synthetic(2, 4, 4, 3, noise=0.05, seed=7)
    c = make_synthetic(2, 4, 4, 3, noise=0.05, seed=8)
    assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))
    assert any(not np.array_equal(x.pixels, y.pixels) for x, y in zip(a, c))


def test_make_synthetic_zero_noise_is_template():
    ds = make_synthetic(2, 4, 4, 1, noise=0.0, seed=1)
    t = class_templates(2, 4, 4)
    assert np.array_equal(ds[0].pixels, t[0])
    assert np.array_equal(ds[1].pixels, t[1])


def test_dataset_fingerprint_tracks_content():
    a = make_synthetic(2, 4, 4, 2, noise=0.03, seed=1)
    b = make_synthetic(2, 4, 4, 2, noise=0.03, seed=1)
    c = make_synthetic(2, 4, 4, 2, noise=0.03, seed=2)
    assert a.fingerprint() == b.fingerprint() != c.fingerprint()


def test_image_sample_validation():
    with pytest.raises(ValueError):
        ImageSample(pixels=np.ones((2, 2)) * 1.5, label=0, source_id="x")
    for bad in (np.nan, np.inf, -np.inf, -0.1, 1.5):
        px = np.full((2, 2), 0.5)
        px[1, 0] = bad
        with pytest.raises(ValueError, match="outside"):
            ImageSample(pixels=px, label=0, source_id="x")
    ImageSample(pixels=np.array([[0.0, 1.0]]), label=0, source_id="x")
    with pytest.raises(ValueError):
        ImageSample(pixels=np.ones(4), label=0, source_id="x")
    # refused by name, not by numpy's "zero-size array to reduction operation"
    for shape in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match="^x: pixels must be non-empty$"):
            ImageSample(pixels=np.zeros(shape), label=0, source_id="x")
    with pytest.raises(ValueError):
        ImageSample(pixels=np.ones((2, 2)), label=-1, source_id="x")


def test_dataset_refuses_class_names_of_the_wrong_count():
    sample = ImageSample(pixels=np.zeros((2, 2)), label=1, source_id="x")
    with pytest.raises(ValueError, match="1 class names for 2 classes"):
        Dataset([sample], n_classes=2, class_names=("only",))
    with pytest.raises(ValueError, match="3 class names for 2 classes"):
        Dataset([sample], n_classes=2, class_names=("a", "b", "c"))
    assert Dataset([sample], n_classes=2).class_names == ("class_0", "class_1")


# -- CIFAR-10 -------------------------------------------------------------------


def test_grayscale_bt601():
    v = grayscale(np.array([255.0]), np.array([0.0]), np.array([0.0]))
    assert v[0] == pytest.approx(0.299)
    v = grayscale(np.array([10.0]), np.array([20.0]), np.array([30.0]))
    assert v[0] == pytest.approx((0.299 * 10 + 0.587 * 20 + 0.114 * 30) / 255.0)


def test_load_cifar_train_and_test(tmp_path):
    write_cifar_dir(tmp_path)
    train = load_cifar10(tmp_path, split="train")
    assert len(train) == 10 and train.n_classes == 10
    assert train[0].pixels.shape == (32, 32)
    expected = (0.299 * 10 + 0.587 * 20 + 0.114 * 30) / 255.0
    assert np.allclose(train[0].pixels, expected)
    test = load_cifar10(tmp_path, split="test")
    assert len(test) == 1 and test[0].label == 7
    assert train.class_names[0] == "airplane"


def test_load_cifar_missing_file(tmp_path):
    with pytest.raises(DataFormatError):
        load_cifar10(tmp_path, split="test")


def test_load_cifar_truncated(tmp_path):
    (tmp_path / "test_batch.bin").write_bytes(cifar_record(1)[:-5])
    with pytest.raises(DataFormatError):
        load_cifar10(tmp_path, split="test")


def test_load_cifar_bad_label(tmp_path):
    (tmp_path / "test_batch.bin").write_bytes(cifar_record(11))
    with pytest.raises(DataFormatError):
        load_cifar10(tmp_path, split="test")


def test_load_cifar_bad_split(tmp_path):
    with pytest.raises(ValueError):
        load_cifar10(tmp_path, split="validation")


# -- checkpoints ----------------------------------------------------------------


def small_net(seed=5):
    return build_network(NetworkConfig(rows=4, cols=4, n_classes=2,
                                       neurons_per_class=2, seed=seed))


def test_checkpoint_round_trip(tmp_path):
    net = small_net()
    ckpt = checkpoint_from_network(net, phase=1, presentations=42)
    path = tmp_path / "ck.bin"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.phase == 1 and back.presentations == 42
    assert back.fingerprint == net.fingerprint()
    for name, w in ckpt.weights.items():
        assert np.array_equal(back.weights[name], w)


def test_checkpoint_bytes_deterministic(tmp_path):
    net = small_net()
    ckpt = checkpoint_from_network(net, phase=2, presentations=7)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(ckpt, p1)
    save_checkpoint(ckpt, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_apply_checkpoint_restores_weights(tmp_path):
    net = small_net()
    ckpt = checkpoint_from_network(net, phase=1, presentations=0)
    other = small_net(seed=9)    # same structure, different initial weights
    apply_checkpoint(other, ckpt)
    for name in ckpt.weights:
        assert np.array_equal(other.projections[name].weight,
                              net.projections[name].weight)


def test_apply_checkpoint_subset_of_projections():
    net = small_net()
    ckpt = checkpoint_from_network(net, phase=1, presentations=0)
    other = small_net(seed=9)
    before_readout = other.projections["feat_readout"].weight.copy()
    apply_checkpoint(other, ckpt,
                     projections=("input_feat", "feat_inhib", "inhib_feat"))
    assert np.array_equal(other.projections["input_feat"].weight,
                          net.projections["input_feat"].weight)
    assert np.array_equal(other.projections["feat_readout"].weight,
                          before_readout)


def test_apply_checkpoint_rejects_structural_mismatch():
    net = small_net()
    ckpt = checkpoint_from_network(net, phase=1, presentations=0)
    bigger = build_network(NetworkConfig(rows=4, cols=8, n_classes=2,
                                         neurons_per_class=2))
    with pytest.raises(DataFormatError):
        apply_checkpoint(bigger, ckpt)


def test_load_checkpoint_corruption(tmp_path):
    net = small_net()
    ckpt = checkpoint_from_network(net, phase=1, presentations=5)
    path = tmp_path / "ck.bin"
    save_checkpoint(ckpt, path)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"NOTACKPT" + bytes(raw[8:]))
    with pytest.raises(DataFormatError):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(bytes(raw[:-20]))
    with pytest.raises(DataFormatError):
        load_checkpoint(truncated)

    trailing = tmp_path / "trail.bin"
    trailing.write_bytes(bytes(raw) + b"junk")
    with pytest.raises(DataFormatError):
        load_checkpoint(trailing)

    bad_version = tmp_path / "ver.bin"
    v = bytearray(raw)
    v[8:12] = (99).to_bytes(4, "little")
    bad_version.write_bytes(bytes(v))
    with pytest.raises(DataFormatError):
        load_checkpoint(bad_version)


# A version-1 checkpoint of small_net(), saved right after build_network.
# Version 1 holds a length-prefixed JSON RNG state after the presentation
# counter, at byte 60: magic 8, version 4, fingerprint length 4 + 32, phase 4,
# counter 8.
V1_CHECKPOINT = Path(__file__).parent / "data" / "ckpt_v1_small_net.bin"
V1_RNG_AT = 60


def test_v1_checkpoint_loads():
    ckpt = load_checkpoint(V1_CHECKPOINT)
    net = small_net()
    assert (ckpt.version, ckpt.phase, ckpt.presentations) == (1, 1, 0)
    assert ckpt.fingerprint == net.fingerprint()
    for name in PROJECTION_ORDER:
        assert np.array_equal(ckpt.weights[name], net.projections[name].weight)


def test_v1_checkpoint_resaves_without_rng_state(tmp_path):
    raw = V1_CHECKPOINT.read_bytes()
    (blob_len,) = struct.unpack_from("<Q", raw, V1_RNG_AT)
    path = tmp_path / "v2.bin"
    save_checkpoint(load_checkpoint(V1_CHECKPOINT), path)
    assert CHECKPOINT_VERSION == 2
    assert path.read_bytes() == (raw[:8] + struct.pack("<I", 2) + raw[12:V1_RNG_AT]
                                 + raw[V1_RNG_AT + 8 + blob_len:])
    assert load_checkpoint(path).version == 2


def test_v1_checkpoint_corrupt_rng_state(tmp_path):
    raw = bytearray(V1_CHECKPOINT.read_bytes())
    raw[V1_RNG_AT + 8] = 0xFF          # first byte of the JSON
    bad = tmp_path / "v1.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="RNG state"):
        load_checkpoint(bad)


# -- key=value config files ------------------------------------------------------


def test_kv_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    write_kv(path, {"rows": 8, "noise": 0.03, "dataset": "synthetic"})
    back = read_kv(path)
    assert back == {"rows": "8", "noise": "0.03", "dataset": "synthetic"}


def test_kv_rewrite_keeps_symlink_and_mode(tmp_path):
    real, link = tmp_path / "real.cfg", tmp_path / "link.cfg"
    write_kv(real, {"rows": 8})
    real.chmod(0o600)
    link.symlink_to(real.name)
    write_kv(link, {"rows": 8, "i_k": 797.4})
    assert link.is_symlink() and read_kv(real) == {"rows": "8", "i_k": "797.4"}
    assert real.stat().st_mode & 0o777 == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.cfg", "real.cfg"]


def test_kv_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nrows = 8\n  cols=4  \n")
    assert read_kv(path) == {"rows": "8", "cols": "4"}


def test_kv_rejects_malformed_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("rows 8\n")
    with pytest.raises(DataFormatError):
        read_kv(path)


def test_kv_rejects_duplicate_key(tmp_path):
    # a repeated key is a mistake, not an override
    path = tmp_path / "run.cfg"
    path.write_text("epochs_phase1 = 5\nrows = 8\nepochs_phase1 = 1\n")
    with pytest.raises(DataFormatError,
                       match=r"run\.cfg:3: duplicate key 'epochs_phase1' \(first set on line 1\)"):
        read_kv(path)


def test_set_kv_rewrites_only_its_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"# toy.cfg\nrows = 8   # grid\n\ni_k = 1.0  # old\r\ncols=8")
    set_kv(path, "i_k", "797.4")
    assert path.read_bytes() == b"# toy.cfg\nrows = 8   # grid\n\ni_k = 797.4  # old\r\ncols=8"
    set_kv(path, "w_feat_readout", 250.5)
    assert path.read_bytes() == (b"# toy.cfg\nrows = 8   # grid\n\ni_k = 797.4  # old\r\n"
                                 b"cols=8\nw_feat_readout = 250.5\n")
    assert read_kv(path) == {"rows": "8", "i_k": "797.4", "cols": "8",
                             "w_feat_readout": "250.5"}
