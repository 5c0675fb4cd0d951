"""Kernel independence testing with Gaussian kernels.

The test statistic is n times the biased HSIC estimator,
trace(K H L H) / n with H = I - (1/n) 11^T, computed exactly from the
upper-triangle Gram blocks in two _CHUNK x _CHUNK buffers and compared with
a level-alpha critical value from a gamma distribution moment-matched to
the statistic's null mean and variance. A differentiable variant of the
same formula serves as a training loss; bandwidths are always set by the
median heuristic and treated as constants.
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


def _center(m: np.ndarray) -> np.ndarray:
    """H m H for the centering matrix H, via row/column means."""
    rm = m.mean(axis=1, keepdims=True)
    cm = m.mean(axis=0, keepdims=True)
    return m - rm - cm + m.mean()


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


def _blockwise_moments(x: np.ndarray, y: np.ndarray, bwx: float, bwy: float,
                       n: int) -> tuple[float, float, float, float]:
    """(statistic, variance, mu_x, mu_y) in two exact passes over the Gram
    blocks with j >= i, each built in place in a preallocated buffer."""
    uv = (x * (np.sqrt(0.5) / bwx), y * (np.sqrt(0.5) / bwy))  # k = exp(-(u_i - u_j)^2)
    bufs = (np.empty((_CHUNK, _CHUNK)), np.empty((_CHUNK, _CHUNK)))
    blocks = [(i, j) for i in range(0, n, _CHUNK) for j in range(i, n, _CHUNK)]

    def gram(side, i, j):
        w, out = uv[side], bufs[side][:min(_CHUNK, n - i), :min(_CHUNK, n - j)]
        np.subtract(w[i:i + _CHUNK, None], w[None, j:j + _CHUNK], out=out)
        return np.exp(np.negative(np.square(out, out=out), out=out), out=out)

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
    if not all(np.isfinite(bw) and bw > 0 for bw in bandwidths):
        raise DataError(f"bandwidths must be finite and positive, got {bandwidths}")
    stat, var, mu_x, mu_y = _blockwise_moments(x, y, bandwidths[0], bandwidths[1], n)
    # gamma moment-matched to the null mean/variance of the statistic
    mean = max((1.0 + mu_x * mu_y - mu_x - mu_y) / n, 1e-300)
    var = max(var, 1e-300)
    shape = mean * mean / var
    scale = var * n / mean
    threshold = float(gamma_dist.ppf(1.0 - alpha, a=shape, scale=scale))
    return HsicResult(statistic=stat, threshold=threshold,
                      bandwidths=bandwidths, n=n, alpha=alpha)


def _trace_pairing(k: ad.Tensor, l: ad.Tensor, n: int) -> ad.Tensor:
    """trace(K H L H) / n as one custom node; the gradient of the trace
    w.r.t. either Gram matrix is the centered other one, divided by n."""
    kc = _center(k.data)
    out = np.array((kc * l.data).sum() / n)
    req = k.requires_grad or l.requires_grad

    def backward_fn(g, sink):
        if k.requires_grad:
            sink(k, g * _center(l.data) / n)
        if l.requires_grad:
            sink(l, g * kc / n)

    return ad.Tensor(out, req, (k, l), backward_fn if req else None)


def hsic_loss(x: ad.Tensor, y: ad.Tensor,
              bandwidths: tuple[float, float] | None = None) -> ad.Tensor:
    """Differentiable n*HSIC_b for column vectors (n x 1).

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

    def gram(t: ad.Tensor, bw: float) -> ad.Tensor:
        d = ad.sub(t, ad.transpose(t))
        return ad.exp(ad.mul(ad.square(d), -0.5 / (bw * bw)))

    return _trace_pairing(gram(x, bandwidths[0]), gram(y, bandwidths[1]), n)
