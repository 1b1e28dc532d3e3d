"""Datasets, checkpoints, and the flat key=value run config format.

CIFAR-10 is read from the binary-version batch files: each record is 3073
bytes (1 label byte, then 1024 red, 1024 green, 1024 blue bytes, row-major).
Images are converted to grayscale in [0, 1] with the BT.601 luma weights
(0.299 R + 0.587 G + 0.114 B) / 255.

Checkpoints are little-endian binary: an 8-byte magic, a format version, the
topology config hash, the training phase tag, the presentation counter, then
one length-prefixed float64 array per projection in the fixed projection
order. Save/load round-trips are bit-exact. Version 1 files also hold a
length-prefixed JSON RNG state after the counter, which nothing consumes: it
is still read and validated, then dropped.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .topology import PROJECTION_ORDER, NetworkTopology

CIFAR_CLASSES = ("airplane", "automobile", "bird", "cat", "deer",
                 "dog", "frog", "horse", "ship", "truck")
_RECORD_BYTES = 3073
_PLANE = 1024

CHECKPOINT_MAGIC = b"SPIKCKP\x01"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class ImageSample:
    """One grayscale image: pixels in [0, 1], shape (rows, cols)."""

    pixels: np.ndarray
    label: int
    source_id: str

    def __post_init__(self) -> None:
        px = self.pixels
        if px.ndim != 2:
            raise ValueError(f"{self.source_id}: pixels must be 2-D")
        if px.size == 0:
            raise ValueError(f"{self.source_id}: pixels must be non-empty")
        # a NaN or an infinity makes min or max non-finite, which fails the test
        if not (0.0 <= px.min() and px.max() <= 1.0):
            raise ValueError(f"{self.source_id}: pixel values outside [0, 1]")
        if self.label < 0:
            raise ValueError(f"{self.source_id}: negative label")


@dataclass
class Dataset:
    """An ordered list of samples with a fixed class count."""

    samples: list[ImageSample]
    n_classes: int
    class_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n_classes < 1:
            raise ValueError("n_classes must be positive")
        for s in self.samples:
            if s.label >= self.n_classes:
                raise ValueError(f"{s.source_id}: label {s.label} >= {self.n_classes}")
        if not self.class_names:
            self.class_names = tuple(f"class_{k}" for k in range(self.n_classes))
        if len(self.class_names) != self.n_classes:
            raise ValueError(f"{len(self.class_names)} class names for "
                             f"{self.n_classes} classes")

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __getitem__(self, i: int) -> ImageSample:
        return self.samples[i]

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)

    def fingerprint(self) -> str:
        """Digest over every pixel and label, order-sensitive."""
        h = hashlib.sha256()
        h.update(f"{len(self.samples)};{self.n_classes}".encode())
        for s in self.samples:
            h.update(np.int64(s.label).tobytes())
            h.update(np.ascontiguousarray(s.pixels, dtype="<f8").tobytes())
        return h.hexdigest()


def grayscale(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """BT.601 luma from byte planes, normalized to [0, 1]."""
    return (0.299 * r + 0.587 * g + 0.114 * b) / 255.0


def _read_cifar_file(path: Path, offset_id: str) -> list[ImageSample]:
    raw = path.read_bytes()
    if len(raw) == 0 or len(raw) % _RECORD_BYTES != 0:
        raise DataFormatError(
            f"{path}: size {len(raw)} is not a multiple of {_RECORD_BYTES} "
            "(truncated or not a binary-version batch)")
    data = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _RECORD_BYTES)
    labels = data[:, 0]
    if labels.max(initial=0) > 9:
        bad = int(np.argmax(labels > 9))
        raise DataFormatError(f"{path}: record {bad} has label {labels[bad]} > 9")
    planes = data[:, 1:].astype(np.float64).reshape(-1, 3, 32, 32)
    gray = grayscale(planes[:, 0], planes[:, 1], planes[:, 2])
    return [ImageSample(pixels=gray[i], label=int(labels[i]),
                        source_id=f"{offset_id}:{i}")
            for i in range(gray.shape[0])]


def load_cifar10(path: str | Path, split: str = "train") -> Dataset:
    """Load the CIFAR-10 binary batches found in directory `path`.

    split="train" reads data_batch_1..5.bin, split="test" reads test_batch.bin.
    """
    root = Path(path)
    if split == "train":
        names = [f"data_batch_{i}.bin" for i in range(1, 6)]
    elif split == "test":
        names = ["test_batch.bin"]
    else:
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    samples: list[ImageSample] = []
    for name in names:
        f = root / name
        if not f.exists():
            raise DataFormatError(f"missing CIFAR-10 batch file: {f}")
        samples.extend(_read_cifar_file(f, name))
    return Dataset(samples=samples, n_classes=10, class_names=CIFAR_CLASSES)


# -- synthetic data ----------------------------------------------------------


TEMPLATE_LEVELS = (0.55, 0.65)


def class_templates(n_classes: int, rows: int, cols: int) -> np.ndarray:
    """Distinct sparse patterns, one per class: a diagonal pixel pair per cell.

    The image is divided into a square grid of cells and class k lights two
    diagonal pixels at the centre of cell k, at the moderate intensities in
    TEMPLATE_LEVELS. Sparse patterns at these levels drive downstream neurons
    near threshold, where initial-weight differences translate into distinct
    per-class response patterns instead of saturating every unit alike.
    """
    if n_classes < 1:
        raise ValueError("n_classes must be positive")
    grid = math.ceil(math.sqrt(n_classes))
    cell_h, cell_w = rows // grid, cols // grid
    if cell_h < 2 or cell_w < 2:
        raise ValueError(
            f"{rows}x{cols} image too small for {n_classes} distinct templates")
    templates = np.zeros((n_classes, rows, cols))
    for k in range(n_classes):
        cr, cc = divmod(k, grid)
        r0 = cr * cell_h + (cell_h - 2) // 2
        c0 = cc * cell_w + (cell_w - 2) // 2
        templates[k, r0, c0] = TEMPLATE_LEVELS[0]
        templates[k, r0 + 1, c0 + 1] = TEMPLATE_LEVELS[1]
    return templates


def make_synthetic(n_classes: int, rows: int, cols: int, samples_per_class: int,
                   noise: float, seed: int) -> Dataset:
    """Seeded synthetic dataset of noisy class templates.

    Each sample is its class template plus per-pixel uniform noise of the
    given amplitude, clipped to [0, 1]. Classes are interleaved (0, 1, ..,
    n-1, 0, 1, ..) so any prefix is roughly class balanced.
    """
    if samples_per_class < 0:
        raise ValueError("samples_per_class must be non-negative")
    if noise < 0.0:
        raise ValueError("noise must be non-negative")
    templates = class_templates(n_classes, rows, cols)
    # pixels[i, k] is sample i of class k; the noise is one draw in that
    # order, the same doubles as one draw per sample
    pixels = np.repeat(templates[None], samples_per_class, axis=0)
    if noise > 0.0:
        pixels += np.random.default_rng(seed).uniform(-noise, noise, pixels.shape)
        np.clip(pixels, 0.0, 1.0, out=pixels)
    samples = [ImageSample(pixels=pixels[i, k], label=k, source_id=f"synth:{k}:{i}")
               for i in range(samples_per_class) for k in range(n_classes)]
    return Dataset(samples=samples, n_classes=n_classes)


# -- checkpoints -------------------------------------------------------------


@dataclass
class Checkpoint:
    """Serializable training state at a presentation boundary."""

    fingerprint: str                    # topology config hash (hex)
    phase: int                          # 1 or 2
    presentations: int                  # presentations completed so far
    weights: dict[str, np.ndarray]      # projection name -> weight array
    version: int = CHECKPOINT_VERSION   # as read; saves write the current one


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write the checkpoint in the current little-endian binary layout."""
    if ckpt.phase not in (1, 2):
        raise ValueError(f"phase must be 1 or 2, got {ckpt.phase}")
    if set(ckpt.weights) != set(PROJECTION_ORDER):
        raise ValueError("checkpoint must hold exactly the five projections")
    fp_blob = bytes.fromhex(ckpt.fingerprint)
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<I", len(fp_blob)), fp_blob,
        struct.pack("<I", ckpt.phase),
        struct.pack("<Q", ckpt.presentations),
    ]
    for name in PROJECTION_ORDER:
        w = np.ascontiguousarray(ckpt.weights[name], dtype="<f8")
        parts.append(struct.pack("<Q", w.size))
        parts.append(w.tobytes())
    write_atomic(path, b"".join(parts))


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write `data` to `path` through a temp file in the same directory and
    an atomic rename: a reader sees the old file or the complete new one,
    and a write that fails midway leaves no partial file behind. A symlink
    is written through, and a file that exists keeps its permissions."""
    path = Path(path).resolve()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        # os.open applies the umask, so a new file gets the usual permissions
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise DataFormatError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and validate a checkpoint file (the current version or v1)."""
    r = _Reader(Path(path).read_bytes(), str(path))
    if r.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: bad magic, not a checkpoint file")
    version = r.unpack("<I")
    if version not in (1, CHECKPOINT_VERSION):
        raise DataFormatError(
            f"{path}: unsupported checkpoint version {version} "
            f"(expected 1 or {CHECKPOINT_VERSION})")
    fp = r.take(r.unpack("<I")).hex()
    phase = r.unpack("<I")
    if phase not in (1, 2):
        raise DataFormatError(f"{path}: invalid phase tag {phase}")
    presentations = r.unpack("<Q")
    if version == 1:
        try:
            json.loads(r.take(r.unpack("<Q")).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise DataFormatError(f"{path}: corrupt RNG state: {e}") from None
    weights: dict[str, np.ndarray] = {}
    for name in PROJECTION_ORDER:
        size = r.unpack("<Q")
        arr = np.frombuffer(r.take(size * 8), dtype="<f8").copy()
        weights[name] = arr
    if r.off != len(r.blob):
        raise DataFormatError(f"{path}: {len(r.blob) - r.off} trailing bytes")
    return Checkpoint(fingerprint=fp, phase=phase, presentations=presentations,
                      weights=weights, version=version)


def checkpoint_from_network(net: NetworkTopology, phase: int,
                            presentations: int) -> Checkpoint:
    return Checkpoint(
        fingerprint=net.fingerprint(), phase=phase, presentations=presentations,
        weights={name: net.projections[name].weight for name in PROJECTION_ORDER})


def apply_checkpoint(net: NetworkTopology, ckpt: Checkpoint,
                     projections: tuple[str, ...] = PROJECTION_ORDER) -> NetworkTopology:
    """Copy checkpoint weights into the network (fingerprint must match)."""
    if ckpt.fingerprint != net.fingerprint():
        raise DataFormatError(
            "checkpoint fingerprint does not match the network config "
            f"({ckpt.fingerprint[:12]}.. vs {net.fingerprint()[:12]}..)")
    for name in projections:
        pop = net.projections[name]
        w = ckpt.weights[name]
        if w.size != pop.n_connections:
            raise DataFormatError(
                f"{name}: checkpoint has {w.size} weights, network has "
                f"{pop.n_connections}")
        pop.weight = w
    return net


# -- flat key=value config files ---------------------------------------------


def read_kv(path: str | Path) -> dict[str, str]:
    """Parse a flat key=value file; '#' starts a comment, blanks ignored,
    a repeated key is an error."""
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise DataFormatError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise DataFormatError(f"{path}:{ln}: empty key")
        if key in line_of:
            raise DataFormatError(
                f"{path}:{ln}: duplicate key {key!r} (first set on line {line_of[key]})")
        line_of[key] = ln
        out[key] = value.strip()
    return out


def set_kv(path: str | Path, key: str, value: object) -> None:
    """Set one key of a key=value file atomically, rewriting its line (inline
    comment kept) or appending one; every other line stays byte-identical."""
    text = Path(path).read_bytes().decode()
    line = re.compile(rf"^[ \t]*{re.escape(key)}[ \t]*=[^#\r\n]*?([ \t]*(#[^\r\n]*)?\r?)$", re.M)
    text, found = line.subn(lambda m: f"{key} = {value}{m.group(1)}", text)
    if not found:
        text += ("\n" if text and not text.endswith("\n") else "") + f"{key} = {value}\n"
    write_atomic(path, text.encode())


def write_kv(path: str | Path, items: dict[str, object]) -> None:
    """Write a key=value file with keys in insertion order, atomically."""
    lines = [f"{k} = {v}" for k, v in items.items()]
    write_atomic(path, ("\n".join(lines) + "\n").encode())
