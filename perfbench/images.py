"""Seeded dense grayscale images for the 32x32 workloads.

Natural images have an amplitude spectrum that falls roughly as 1/f, so a
white-noise field filtered by 1/f^beta in the Fourier domain looks like a
blurry CIFAR frame: large smooth blobs with soft edges. Every image is
standardised to the same mean and contrast before it is mapped into [0, 1],
so the fraction of pixels above the input rheobase, and with it the work per
presentation, barely depends on the seed. Nothing is downloaded.
"""

from __future__ import annotations

import numpy as np

MEAN = 0.55         # mean intensity; the default encoder fires above ~0.48
CONTRAST = 0.20     # standard deviation before clipping to [0, 1]
BETA = 1.5          # spectral slope of the amplitude filter


def smooth_field(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Zero-mean, unit-variance field with a 1/f^BETA amplitude spectrum."""
    fy = np.fft.fftfreq(rows)[:, None]
    fx = np.fft.rfftfreq(cols)[None, :]
    f = np.hypot(fy, fx)
    f[0, 0] = np.inf                      # drop the DC component
    spectrum = rng.standard_normal(f.shape) + 1j * rng.standard_normal(f.shape)
    field = np.fft.irfft2(spectrum / f ** BETA, s=(rows, cols))
    return (field - field.mean()) / field.std()


def to_pixels(field: np.ndarray) -> np.ndarray:
    """Map a standardised field to intensities in [0, 1]."""
    return np.clip(MEAN + CONTRAST * field, 0.0, 1.0)


def dense_images(seed: int, n: int, rows: int = 32, cols: int = 32) -> list[np.ndarray]:
    """`n` independent smooth images."""
    rng = np.random.default_rng(seed)
    return [to_pixels(smooth_field(rng, rows, cols)) for _ in range(n)]


def class_images(seed: int, n_classes: int, per_class: int, rows: int = 32,
                 cols: int = 32, share: float = 0.7) -> list[tuple[np.ndarray, int]]:
    """Class-structured images, interleaved by class.

    Class k has one prototype field; each sample mixes it with a private
    field (`share` of the variance from the prototype) and re-standardises,
    so samples of one class look alike and all samples drive the input layer
    equally hard.
    """
    rng = np.random.default_rng(seed)
    protos = [smooth_field(rng, rows, cols) for _ in range(n_classes)]
    a, b = np.sqrt(share), np.sqrt(1.0 - share)
    out = []
    for _ in range(per_class):
        for k in range(n_classes):
            mix = a * protos[k] + b * smooth_field(rng, rows, cols)
            out.append((to_pixels((mix - mix.mean()) / mix.std()), k))
    return out
