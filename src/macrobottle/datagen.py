"""Synthetic paired datasets with recorded ground truth.

Two scenarios are provided. The main one draws four macrovariables over a
common cause and one directed edge:

    x1 = c1 + n_x1        y1 = c1^3 + n_y1        y2 = tanh(x2) + n_y2

with c1, x2 uniform on [-1, 1] and the noises uniform on [-0.2, 0.2]
(EQUATION_NOISE), all mutually independent. Samples are embedded as 8x8
grey-scale images: every pixel of the left/right half of X takes the value
x1/x2, every pixel of the top/bottom half of Y takes y1/y2, then i.i.d.
uniform pixel noise on [-0.2, 0.2] (IMAGE_NOISE) is added. The asymmetric
scenario has a single macrovariable per side with y1 = x1^2 exactly, each
spread over the whole image. Each scenario's structural equations are
written once, for its generator and for equations_hold, which checks them on
saved columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

IMAGE_SIDE = 8
IMAGE_DIM = IMAGE_SIDE * IMAGE_SIDE
# the most samples whose n x IMAGE_DIM float64 matrix numpy can hold
MAX_SAMPLES = np.iinfo(np.intp).max // (8 * IMAGE_DIM)

EQUATION_NOISE = 0.2  # half-width of the uniform noises n_x1, n_y1, n_y2
IMAGE_NOISE = 0.2  # half-width of the uniform noise added to every pixel


@dataclass
class GroundTruth:
    """Per-sample latent values and noise draws of the generating equations."""

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
    ground_truth: GroundTruth | None = None

    def __post_init__(self):
        if self.x.shape[0] != self.y.shape[0]:
            raise DataError(
                f"X and Y row counts differ: {self.x.shape[0]} vs {self.y.shape[0]}")

    @property
    def n(self) -> int:
        return self.x.shape[0]


TRAIN = 0  # the label of the train rows in assign_splits


def assign_splits(n: int, seed: int) -> np.ndarray:
    """Per-sample labels of cae.split_rows(n, seed), 0, 1 and 2 for its
    train, val and test rows: gen's split column, and the benchmark
    harness's count of train rows."""
    from .cae import split_rows  # deferred, as cae imports this module
    labels = np.empty(n, dtype=np.int64)
    for label, rows in enumerate(split_rows(n, seed)):
        labels[rows] = label
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


def _main_equations(v: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {"x1": v["c1"] + v["n_x1"], "y1": v["c1"] ** 3 + v["n_y1"],
            "y2": np.tanh(v["x2"]) + v["n_y2"]}


def _asymmetric_equations(v: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {"y1": v["x1"] ** 2}


# per scenario: the latents its structural equations derive from the columns
# of the other latents and the noises, by name
_EQUATIONS = {"main": _main_equations, "asymmetric": _asymmetric_equations}


def equations_hold(model: str, columns: dict[str, np.ndarray]) -> bool:
    """Whether named latent and noise columns satisfy the scenario's
    structural equations bit for bit."""
    derived = _EQUATIONS[model](columns)
    return all(np.array_equal(columns[name], value) for name, value in derived.items())


def _check_samples(n: int) -> None:
    if not 1 <= n <= MAX_SAMPLES:
        raise DataError(f"n must lie in [1, {MAX_SAMPLES}], got {n}")


def gen_main_synthetic(n: int, seed: int) -> DatasetPair:
    """Common-cause pair (x1, y1) plus directed pair x2 -> y2, embedded in
    8x8 images."""
    _check_samples(n)
    rng = np.random.default_rng(seed)
    v = {"c1": rng.uniform(-1.0, 1.0, n), "x2": rng.uniform(-1.0, 1.0, n)}
    noises = {name: rng.uniform(-EQUATION_NOISE, EQUATION_NOISE, n)
              for name in ("n_x1", "n_y1", "n_y2")}
    v.update(noises)
    v.update(_main_equations(v))

    x = _embed_halves(v["x1"], v["x2"], by_rows=False)
    y = _embed_halves(v["y1"], v["y2"], by_rows=True)
    x += rng.uniform(-IMAGE_NOISE, IMAGE_NOISE, x.shape)
    y += rng.uniform(-IMAGE_NOISE, IMAGE_NOISE, y.shape)

    latents = {name: v[name] for name in ("c1", "x1", "x2", "y1", "y2")}
    truth = GroundTruth(latents, noises)
    return DatasetPair(x, y, truth)


def gen_asymmetric(n: int, seed: int) -> DatasetPair:
    """One macrovariable per side with y1 = x1^2 exactly; x1 is spread over
    all of X and y1 over all of Y, so each macrovariable is the image mean."""
    _check_samples(n)
    rng = np.random.default_rng(seed)
    latents = {"x1": rng.uniform(-1.0, 1.0, n)}
    latents.update(_asymmetric_equations(latents))

    x = np.repeat(latents["x1"][:, None], IMAGE_DIM, axis=1)
    y = np.repeat(latents["y1"][:, None], IMAGE_DIM, axis=1)
    x = x + rng.uniform(-IMAGE_NOISE, IMAGE_NOISE, x.shape)
    y = y + rng.uniform(-IMAGE_NOISE, IMAGE_NOISE, y.shape)

    truth = GroundTruth(latents)
    return DatasetPair(x, y, truth)
