"""Kernel independence testing with Gaussian kernels.

The test statistic is n times the biased HSIC estimator,
trace(K H L H) / n with H = I - (1/n) 11^T, computed exactly from the
upper-triangle Gram blocks in two _CHUNK x _CHUNK buffers and compared with
a level-alpha critical value from a gamma distribution moment-matched to
the statistic's null mean and variance. The same statistic, built with the
same kernel code (_gram), serves as a training loss: one autodiff node with
an analytic gradient. Bandwidths are set by the median heuristic and treated
as constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist
from scipy.stats import gamma as gamma_dist

from . import autodiff as ad
from .errors import DataError, DegenerateDataError

DEFAULT_ALPHA = 0.05
MEDIAN_SUBSAMPLE = 1000


def median_bandwidth(x: np.ndarray, max_points: int = MEDIAN_SUBSAMPLE,
                     seed: int = 0) -> float:
    """Median of pairwise absolute differences, on a seeded subsample of at
    most max_points when the input is larger."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size < 2:
        raise DataError("median bandwidth needs at least 2 values")
    if x.size > max_points:
        idx = np.random.default_rng(seed).choice(x.size, max_points, replace=False)
        x = x[idx]
    med = float(np.median(pdist(x[:, None], "cityblock")))
    if med == 0.0:
        raise DegenerateDataError("degenerate bandwidth: pairwise distances have zero median")
    return med


@dataclass
class HsicResult:
    statistic: float
    threshold: float
    bandwidths: tuple[float, float]
    n: int
    alpha: float

    @property
    def rejected(self) -> bool:
        """True when the independence hypothesis is rejected."""
        return self.statistic >= self.threshold


_CHUNK = 512  # two float64 blocks of this size (2 MB each) stay in cache


def _kernel_scales(bandwidths: tuple[float, float]) -> list[float]:
    """sqrt(0.5) / bandwidth per side, the factor _gram's inputs carry;
    bandwidths that are not finite and > 0 raise DataError."""
    if not all(np.isfinite(bw) and bw > 0 for bw in bandwidths):
        raise DataError(f"bandwidths must be finite and positive, got {bandwidths}")
    return [np.sqrt(0.5) / bw for bw in bandwidths]


def _gram(u: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out with the Gaussian kernel exp(-(u_i - v_j)^2), in place, from
    inputs already scaled by sqrt(0.5) / bandwidth."""
    np.subtract(u[:, None], v[None, :], out=out)
    return np.exp(np.negative(np.square(out, out=out), out=out), out=out)


def _blockwise_moments(u: np.ndarray, v: np.ndarray, n: int) -> tuple[float, float, float, float]:
    """(statistic, variance, mu_x, mu_y) of scaled inputs in two exact passes
    over the Gram blocks with j >= i, each built in place in a buffer."""
    uv = (u, v)
    bufs = (np.empty((_CHUNK, _CHUNK)), np.empty((_CHUNK, _CHUNK)))
    blocks = [(i, j) for i in range(0, n, _CHUNK) for j in range(i, n, _CHUNK)]

    def gram(side, i, j):
        a, b = uv[side][i:i + _CHUNK], uv[side][j:j + _CHUNK]
        return _gram(a, b, bufs[side][:a.size, :b.size])

    # pass 1: row sums; block (i, j) gives those of its mirror as column sums
    rows = np.zeros((2, n))
    for i, j in blocks:
        for side in (0, 1):
            b = gram(side, i, j)
            rows[side, i:i + _CHUNK] += b.sum(axis=1)
            if j > i:
                rows[side, j:j + _CHUNK] += b.sum(axis=0)
    sums = rows.sum(axis=1)
    offsets = rows / n - sums[:, None] / (2 * n * n)  # Kc = K - offset_i - offset_j

    # pass 2: sum(Kc o Lc) equals trace(K H L H) because H is idempotent;
    # the variance needs the off-diagonal sum of (Kc o Lc)^2
    stat = var_sum = var_diag = 0.0
    for i, j in blocks:
        weight = 1.0 if j == i else 2.0  # the mirror block counts too
        kc, lc = gram(0, i, j), gram(1, i, j)
        for side, b in ((0, kc), (1, lc)):
            b -= offsets[side, i:i + _CHUNK, None]
            b -= offsets[side, None, j:j + _CHUNK]
        prod = np.multiply(kc, lc, out=kc)
        stat += weight * float(prod.sum())
        var_sum += weight * float(np.square(prod, out=prod).sum())
        if j == i:
            var_diag += float(np.trace(prod))
    mu_x, mu_y = (sums - n) / (n * (n - 1))  # unit diagonal of the Gaussian kernel
    var = (var_sum - var_diag) / (36.0 * n * (n - 1))
    var *= 72.0 * (n - 4) * (n - 5) / (n * (n - 1) * (n - 2) * (n - 3))
    return stat / n, var, mu_x, mu_y


def hsic_statistic(x: np.ndarray, y: np.ndarray, alpha: float = DEFAULT_ALPHA,
                   bandwidths: tuple[float, float] | None = None,
                   seed: int = 0) -> HsicResult:
    """Biased-estimator test statistic n*HSIC_b with its gamma threshold.

    Exact over all n points: two passes over the symmetric Gram blocks with
    j >= i, in two _CHUNK x _CHUNK buffers. Non-finite samples and
    bandwidths that are not finite and > 0 raise DataError.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.size != y.size:
        raise DataError(f"length mismatch: {x.size} vs {y.size}")
    n = x.size
    if n < 6:
        raise DataError("hsic_statistic needs at least 6 samples")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("hsic_statistic needs finite samples")
    if bandwidths is None:
        bandwidths = (median_bandwidth(x, seed=seed), median_bandwidth(y, seed=seed))
    sx, sy = _kernel_scales(bandwidths)
    stat, var, mu_x, mu_y = _blockwise_moments(x * sx, y * sy, n)
    # gamma moment-matched to the null mean/variance of the statistic
    mean = max((1.0 + mu_x * mu_y - mu_x - mu_y) / n, 1e-300)
    var = max(var, 1e-300)
    shape = mean * mean / var
    scale = var * n / mean
    threshold = float(gamma_dist.ppf(1.0 - alpha, a=shape, scale=scale))
    return HsicResult(statistic=stat, threshold=threshold,
                      bandwidths=bandwidths, n=n, alpha=alpha)


def hsic_loss(x: ad.Tensor, y: ad.Tensor,
              bandwidths: tuple[float, float] | None = None) -> ad.Tensor:
    """Differentiable n*HSIC_b for column vectors (n x 1): one node with an
    analytic gradient, its Grams built and centred as in hsic_statistic.

    Bandwidths default to the median heuristic on the current values and are
    excluded from differentiation; a degenerate (constant) input falls back
    to bandwidth 1, where the centered statistic is 0 anyway.
    """
    x = ad.constant(x)
    y = ad.constant(y)
    if x.data.ndim != 2 or x.data.shape[1] != 1 or x.data.shape != y.data.shape:
        raise DataError(f"hsic_loss expects matching (n, 1) batches, got "
                        f"{x.data.shape} and {y.data.shape}")
    n = x.data.shape[0]
    if n < 8:
        raise DataError("hsic_loss needs a minibatch of at least 8")

    def safe_bw(v: np.ndarray) -> float:
        try:
            return median_bandwidth(v)
        except DegenerateDataError:
            return 1.0

    if bandwidths is None:
        bandwidths = (safe_bw(x.data), safe_bw(y.data))
    scales = _kernel_scales(bandwidths)
    u, v = x.data[:, 0] * scales[0], y.data[:, 0] * scales[1]

    def centred(w):
        k = _gram(w, w, np.empty((n, n)))
        offset = k.mean(axis=1) - k.mean() / 2  # Kc = K - offset_i - offset_j
        return k, k - offset[:, None] - offset[None, :]

    (k, kc), (l, lc) = centred(u), centred(v)

    def backward_fn(g, sink):
        # d/dw_i sum(Kc o Lc) / n = -(4/n) sum_j m_ij (w_i - w_j) with
        # m = K o Lc for x and m = L o Kc for y, then the chain through scale
        for t, w, gram, other_c, scale in ((x, u, k, lc, scales[0]), (y, v, l, kc, scales[1])):
            if t.requires_grad:
                m = gram * other_c
                sink(t, (g * (-4.0 * scale / n)) * (w * m.sum(axis=1) - m @ w)[:, None])

    req = x.requires_grad or y.requires_grad
    return ad.Tensor(np.array((kc * l).sum() / n), req, (x, y), backward_fn if req else None)
