"""Synthetic paired datasets with recorded ground truth.

Two scenarios are provided. The main one draws four macrovariables over a
common cause and one directed edge:

    x1 = c1 + n_x1        y1 = c1^3 + n_y1        y2 = tanh(x2) + n_y2

with c1, x2 uniform on [-1, 1] and the noises uniform on [-0.2, 0.2], all
mutually independent. Samples are embedded as 8x8 grey-scale images: every
pixel of the left/right half of X takes the value x1/x2, every pixel of the
top/bottom half of Y takes y1/y2, then i.i.d. uniform pixel noise on
[-0.2, 0.2] is added. The asymmetric scenario has a single macrovariable per
side with y1 = x1^2 exactly, each spread over the whole image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError

IMAGE_SIDE = 8
IMAGE_DIM = IMAGE_SIDE * IMAGE_SIDE

TRAIN, VAL, TEST = 0, 1, 2
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)  # train, val, test

_SPLIT_SALT = 0x53504C49


@dataclass
class GroundTruth:
    """Per-sample latent values and noise draws of the generating equations."""

    model: str
    latents: dict[str, np.ndarray]
    noises: dict[str, np.ndarray] = field(default_factory=dict)

    def column_names(self) -> list[str]:
        return list(self.latents) + list(self.noises)

    def as_matrix(self) -> np.ndarray:
        cols = [self.latents[k] for k in self.latents]
        cols += [self.noises[k] for k in self.noises]
        return np.column_stack(cols)


@dataclass
class DatasetPair:
    """Row-aligned sample matrices X (n x dX) and Y (n x dY)."""

    x: np.ndarray
    y: np.ndarray
    split: np.ndarray | None = None
    ground_truth: GroundTruth | None = None

    def __post_init__(self):
        if self.x.shape[0] != self.y.shape[0]:
            raise DataError(
                f"X and Y row counts differ: {self.x.shape[0]} vs {self.y.shape[0]}")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def rows(self, label: int) -> np.ndarray:
        if self.split is None:
            raise DataError("dataset has no train/val/test split assigned")
        return np.flatnonzero(self.split == label)


def assign_splits(n: int, seed: int) -> np.ndarray:
    """Per-sample train/val/test labels in SPLIT_FRACTIONS; a pure function
    of (n, seed)."""
    if n < 1:
        raise DataError("cannot split an empty dataset")
    rng = np.random.default_rng([_SPLIT_SALT, seed])
    perm = rng.permutation(n)
    n_train = int(np.floor(SPLIT_FRACTIONS[0] * n))
    n_val = int(np.floor(SPLIT_FRACTIONS[1] * n))
    labels = np.full(n, TEST, dtype=np.int64)
    labels[perm[:n_train]] = TRAIN
    labels[perm[n_train:n_train + n_val]] = VAL
    return labels


def _embed_halves(left: np.ndarray, right: np.ndarray, by_rows: bool) -> np.ndarray:
    """8x8 image per sample with one half per macrovariable, row-major."""
    n = left.shape[0]
    img = np.empty((n, IMAGE_SIDE, IMAGE_SIDE))
    half = IMAGE_SIDE // 2
    if by_rows:
        img[:, :half, :] = left[:, None, None]
        img[:, half:, :] = right[:, None, None]
    else:
        img[:, :, :half] = left[:, None, None]
        img[:, :, half:] = right[:, None, None]
    return img.reshape(n, IMAGE_DIM)


def gen_main_synthetic(n: int, seed: int, structural_noise: float = 0.2,
                       pixel_noise: float = 0.2) -> DatasetPair:
    """Common-cause pair (x1, y1) plus directed pair x2 -> y2, embedded in
    8x8 images. Noise amplitudes are exposed so tests can switch them off."""
    if n < 1:
        raise DataError("n must be >= 1")
    rng = np.random.default_rng(seed)
    c1 = rng.uniform(-1.0, 1.0, n)
    x2 = rng.uniform(-1.0, 1.0, n)
    n_x1 = rng.uniform(-structural_noise, structural_noise, n)
    n_y1 = rng.uniform(-structural_noise, structural_noise, n)
    n_y2 = rng.uniform(-structural_noise, structural_noise, n)
    x1 = c1 + n_x1
    y1 = c1 ** 3 + n_y1
    y2 = np.tanh(x2) + n_y2

    x = _embed_halves(x1, x2, by_rows=False)
    y = _embed_halves(y1, y2, by_rows=True)
    x += rng.uniform(-pixel_noise, pixel_noise, x.shape)
    y += rng.uniform(-pixel_noise, pixel_noise, y.shape)

    truth = GroundTruth(
        model="main",
        latents={"c1": c1, "x1": x1, "x2": x2, "y1": y1, "y2": y2},
        noises={"n_x1": n_x1, "n_y1": n_y1, "n_y2": n_y2},
    )
    return DatasetPair(x, y, assign_splits(n, seed), truth)


def gen_asymmetric(n: int, seed: int, pixel_noise: float = 0.2) -> DatasetPair:
    """One macrovariable per side with y1 = x1^2 exactly; x1 is spread over
    all of X and y1 over all of Y, so each macrovariable is the image mean."""
    if n < 1:
        raise DataError("n must be >= 1")
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-1.0, 1.0, n)
    y1 = x1 ** 2

    x = np.repeat(x1[:, None], IMAGE_DIM, axis=1)
    y = np.repeat(y1[:, None], IMAGE_DIM, axis=1)
    x = x + rng.uniform(-pixel_noise, pixel_noise, x.shape)
    y = y + rng.uniform(-pixel_noise, pixel_noise, y.shape)

    truth = GroundTruth(model="asymmetric", latents={"x1": x1, "y1": y1})
    return DatasetPair(x, y, assign_splits(n, seed), truth)


def macro_readout(pair: DatasetPair) -> tuple[np.ndarray, np.ndarray]:
    """Half-average readouts: per-sample (x1, x2) from the left/right halves
    of X and (y1, y2) from the top/bottom halves of Y."""
    if pair.x.shape[1] != IMAGE_DIM or pair.y.shape[1] != IMAGE_DIM:
        raise DimensionError(
            f"macro_readout expects {IMAGE_DIM}-dimensional samples, got "
            f"dX={pair.x.shape[1]}, dY={pair.y.shape[1]}")
    half = IMAGE_SIDE // 2
    ximg = pair.x.reshape(-1, IMAGE_SIDE, IMAGE_SIDE)
    yimg = pair.y.reshape(-1, IMAGE_SIDE, IMAGE_SIDE)
    x_read = np.column_stack([
        ximg[:, :, :half].mean(axis=(1, 2)),
        ximg[:, :, half:].mean(axis=(1, 2)),
    ])
    y_read = np.column_stack([
        yimg[:, :half, :].mean(axis=(1, 2)),
        yimg[:, half:, :].mean(axis=(1, 2)),
    ])
    return x_read, y_read
