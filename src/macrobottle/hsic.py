"""Kernel independence testing with Gaussian kernels.

The test statistic is n times the biased HSIC estimator,
trace(K H L H) / n with H = I - (1/n) 11^T, computed exactly from the
upper-triangle Gram blocks, swept by one thread per CPU of the process's
affinity mask and summed in a fixed block order, and compared with a
level-alpha critical value from a gamma distribution moment-matched to the
statistic's null mean and variance. The same statistic, built with the same
kernel code (_gram), serves as a training loss with an analytic gradient,
computed serially. Bandwidths are set by the median heuristic and treated
as constants.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist
from scipy.stats import gamma as gamma_dist

from .errors import DataError, DegenerateDataError

DEFAULT_ALPHA = 0.05
MEDIAN_SUBSAMPLE = 1000


def median_bandwidth(x: np.ndarray) -> float:
    """Median of pairwise absolute differences, on a subsample of
    MEDIAN_SUBSAMPLE points (drawn with seed 0) when the input is larger."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size < 2:
        raise DataError("median bandwidth needs at least 2 values")
    if x.size > MEDIAN_SUBSAMPLE:
        idx = np.random.default_rng(0).choice(x.size, MEDIAN_SUBSAMPLE, replace=False)
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
    over the Gram blocks with j >= i. Worker w of a thread pool made for this
    call takes blocks w, w + workers, ... and builds their Grams in place in
    its own two buffers, calling only _gram and numpy; this thread adds the
    per-block sums up in block order, so any worker count gives the same bits."""
    uv = (u, v)
    blocks = [(i, j) for i in range(0, n, _CHUNK) for j in range(i, n, _CHUNK)]
    # one worker per CPU of the affinity mask, at most one per block
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(cpus or 1, len(blocks)))
    bufs = [(np.empty((_CHUNK, _CHUNK)), np.empty((_CHUNK, _CHUNK))) for _ in range(workers)]

    def gram(w, side, i, j):
        a, b = uv[side][i:i + _CHUNK], uv[side][j:j + _CHUNK]
        return _gram(a, b, bufs[w][side][:a.size, :b.size])

    def sweep(pool, reduce_block):
        """(block, reduce_block(K block, L block, i, j)) in block order."""
        parts = list(pool.map(lambda w: [reduce_block(gram(w, 0, i, j), gram(w, 1, i, j), i, j)
                                         for i, j in blocks[w::workers]], range(workers)))
        return zip(blocks, (parts[k % workers][k // workers] for k in range(len(blocks))))

    def centred_moments(kc, lc, i, j):
        for side, b in ((0, kc), (1, lc)):
            b -= offsets[side, i:i + _CHUNK, None]
            b -= offsets[side, None, j:j + _CHUNK]
        prod = np.multiply(kc, lc, out=kc)
        total = float(prod.sum())
        np.square(prod, out=prod)
        return total, float(prod.sum()), float(np.trace(prod)) if j == i else 0.0

    with ThreadPoolExecutor(workers) as pool:
        # pass 1: row sums; block (i, j) gives those of its mirror as column sums
        rows = np.zeros((2, n))
        for (i, j), sides in sweep(pool, lambda k, l, i, j: [(b.sum(axis=1), b.sum(axis=0))
                                                             for b in (k, l)]):
            for side, (row, col) in enumerate(sides):
                rows[side, i:i + _CHUNK] += row
                if j > i:
                    rows[side, j:j + _CHUNK] += col
        sums = rows.sum(axis=1)
        offsets = rows / n - sums[:, None] / (2 * n * n)  # Kc = K - offset_i - offset_j

        # pass 2: sum(Kc o Lc) equals trace(K H L H) because H is idempotent;
        # the variance needs the off-diagonal sum of (Kc o Lc)^2
        stat = var_sum = var_diag = 0.0
        for (i, j), (total, sq_total, sq_trace) in sweep(pool, centred_moments):
            weight = 1.0 if j == i else 2.0  # the mirror block counts too
            stat += weight * total
            var_sum += weight * sq_total
            var_diag += sq_trace  # 0.0 off the diagonal
    mu_x, mu_y = (sums - n) / (n * (n - 1))  # unit diagonal of the Gaussian kernel
    var = (var_sum - var_diag) / (36.0 * n * (n - 1))
    var *= 72.0 * (n - 4) * (n - 5) / (n * (n - 1) * (n - 2) * (n - 3))
    return stat / n, var, mu_x, mu_y


def hsic_statistic(x: np.ndarray, y: np.ndarray, alpha: float = DEFAULT_ALPHA,
                   bandwidths: tuple[float, float] | None = None) -> HsicResult:
    """Biased-estimator test statistic n*HSIC_b with its gamma threshold.

    Exact over all n points: two passes over the symmetric Gram blocks with
    j >= i, split over a thread pool with one worker per CPU of the affinity
    mask (taskset limits it), each with two _CHUNK x _CHUNK buffers. The
    per-block sums are added in block order, so the result is bit-identical
    for any worker count. Non-finite samples and bandwidths that are not
    finite and > 0 raise DataError.
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
        bandwidths = (median_bandwidth(x), median_bandwidth(y))
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


def hsic_loss(x: np.ndarray, y: np.ndarray,
              bandwidths: tuple[float, float] | None = None
              ) -> tuple[float, np.ndarray, np.ndarray]:
    """n*HSIC_b of column vectors (n x 1) and its analytic gradients with
    respect to x and y, the Grams built and centred as in hsic_statistic.

    Bandwidths default to the median heuristic on the current values and are
    excluded from differentiation; a degenerate (constant) input falls back
    to bandwidth 1, where the centered statistic is 0 anyway.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 1 or x.shape != y.shape:
        raise DataError(f"hsic_loss expects matching (n, 1) batches, got "
                        f"{x.shape} and {y.shape}")
    n = x.shape[0]
    if n < 8:
        raise DataError("hsic_loss needs a minibatch of at least 8")

    def safe_bw(v: np.ndarray) -> float:
        try:
            return median_bandwidth(v)
        except DegenerateDataError:
            return 1.0

    if bandwidths is None:
        bandwidths = (safe_bw(x), safe_bw(y))
    scales = _kernel_scales(bandwidths)
    u, v = x[:, 0] * scales[0], y[:, 0] * scales[1]

    def centred(w):
        k = _gram(w, w, np.empty((n, n)))
        offset = k.mean(axis=1) - k.mean() / 2  # Kc = K - offset_i - offset_j
        return k, k - offset[:, None] - offset[None, :]

    (k, kc), (l, lc) = centred(u), centred(v)
    # d/dw_i sum(Kc o Lc) / n = -(4/n) sum_j m_ij (w_i - w_j) with m = K o Lc
    # for x and m = L o Kc for y, then the chain through the scale; each m
    # is built in its Gram's own buffer
    m_y = np.multiply(l, kc, out=l)
    value = m_y.sum() / n
    m_x = np.multiply(k, lc, out=k)
    grads = [(-4.0 * scale / n) * (w * m.sum(axis=1) - m @ w)[:, None]
             for w, m, scale in ((u, m_x, scales[0]), (v, m_y, scales[1]))]
    return float(value), grads[0], grads[1]
