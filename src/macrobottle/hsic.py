"""Kernel independence testing with Gaussian kernels.

The test statistic is n times the biased HSIC estimator,
trace(K H L H) / n with H = I - (1/n) 11^T, compared against a level-alpha
critical value from a gamma distribution moment-matched to the statistic's
null mean and variance. A differentiable variant of the same formula serves
as a training loss; bandwidths are always set by the median heuristic and
treated as constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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
    diffs = np.abs(x[:, None] - x[None, :])
    med = float(np.median(diffs[np.triu_indices(x.size, k=1)]))
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


_CHUNK = 2048


def _blockwise_moments(x: np.ndarray, y: np.ndarray, bwx: float, bwy: float,
                       n: int) -> tuple[float, float, float, float]:
    """(statistic, variance, mu_x, mu_y) accumulated over Gram blocks, so
    the full n x n matrices are never materialized."""
    cx = -0.5 / (bwx * bwx)
    cy = -0.5 / (bwy * bwy)

    def block(v, c, i, j):
        d = v[i:i + _CHUNK, None] - v[None, j:j + _CHUNK]
        return np.exp(d * d * c)

    # pass 1: row sums and grand sums of both Gram matrices
    rk = np.zeros(n)
    rl = np.zeros(n)
    for i in range(0, n, _CHUNK):
        for j in range(0, n, _CHUNK):
            rk[i:i + _CHUNK] += block(x, cx, i, j).sum(axis=1)
            rl[i:i + _CHUNK] += block(y, cy, i, j).sum(axis=1)
    sk, sl = rk.sum(), rl.sum()
    mk, ml = sk / (n * n), sl / (n * n)
    mu_x = (sk - n) / (n * (n - 1))  # unit diagonal of the Gaussian kernel
    mu_y = (sl - n) / (n * (n - 1))

    # pass 2: statistic and the off-diagonal variance accumulator
    stat = 0.0
    var_sum = 0.0
    var_diag = 0.0
    for i in range(0, n, _CHUNK):
        for j in range(0, n, _CHUNK):
            kb = block(x, cx, i, j)
            lb = block(y, cy, i, j)
            kc = kb - rk[i:i + _CHUNK, None] / n - rk[None, j:j + _CHUNK] / n + mk
            lc = lb - rl[i:i + _CHUNK, None] / n - rl[None, j:j + _CHUNK] / n + ml
            stat += float((kc * lb).sum())
            prod = (kc * lc / 6.0) ** 2
            var_sum += float(prod.sum())
            if i == j:
                var_diag += float(np.trace(prod))
    var = (var_sum - var_diag) / (n * (n - 1))
    var *= 72.0 * (n - 4) * (n - 5) / (n * (n - 1) * (n - 2) * (n - 3))
    return stat / n, var, mu_x, mu_y


def hsic_statistic(x: np.ndarray, y: np.ndarray, alpha: float = DEFAULT_ALPHA,
                   bandwidths: tuple[float, float] | None = None,
                   seed: int = 0) -> HsicResult:
    """Biased-estimator test statistic n*HSIC_b with its gamma threshold.

    Large inputs are processed in Gram blocks, so memory stays bounded while
    the statistic keeps its full-sample power.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.size != y.size:
        raise DataError(f"length mismatch: {x.size} vs {y.size}")
    n = x.size
    if n < 6:
        raise DataError("hsic_statistic needs at least 6 samples")
    if bandwidths is None:
        bandwidths = (median_bandwidth(x, seed=seed), median_bandwidth(y, seed=seed))
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
    out = np.array((_center(k.data) * l.data).sum() / n)
    req = k.requires_grad or l.requires_grad

    def backward_fn(g, sink):
        if k.requires_grad:
            sink(k, g * _center(l.data) / n)
        if l.requires_grad:
            sink(l, g * _center(k.data) / n)

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
