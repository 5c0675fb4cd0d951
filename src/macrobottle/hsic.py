"""Kernel independence testing with Gaussian kernels.

The test statistic is n times the biased HSIC estimator,
trace(K H L H) / n with H = I - (1/n) 11^T, computed exactly from the
upper-triangle Gram blocks and compared with a level-alpha critical value
from a gamma distribution moment-matched to the statistic's null mean and
variance. The statistic and the transform fit's loss share one block sweep
(_sweep): one thread per CPU of the process's affinity mask builds each
512 x 512 block in 128-row strips, small enough for a core's L2 cache. Its
first pass takes the row sums that centre the Grams; its second hands the
centred strips to a reducer, one for the statistic and its null moments and
one for the loss and its analytic gradient. The per-block results are added
up in a fixed block order, so the statistic, the loss and its gradients are
the same bits for any number of CPUs. Adding strip sums instead of
whole-block sums changes only the addition order: the statistic is within
1e-14 relative of whole-block sums. The loss value is within 1e-12 relative
of a dense n x n computation and its gradients within 3e-12 of their
largest entry, since they also move with the rounding of the centring
offsets. No n x n buffer is held: a loss call at n = 1000, a transform
fit's minibatch, peaks at 4.4 MB on two CPUs. Bandwidths are set by the
median heuristic, an exact selection of the median pairwise distance, and
treated as constants.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateDataError

DEFAULT_ALPHA = 0.05
MEDIAN_SUBSAMPLE = 1000


def median_bandwidth(x: np.ndarray) -> float:
    """Median of pairwise absolute differences, on a subsample of
    MEDIAN_SUBSAMPLE points (drawn with seed 0) when the input is larger.

    The median is selected exactly from the sorted values without listing
    all n(n-1)/2 differences (_median_difference), and is the same bits as
    np.median(scipy.spatial.distance.pdist(x[:, None], "cityblock")).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size < 2:
        raise DataError("median bandwidth needs at least 2 values")
    if x.size > MEDIAN_SUBSAMPLE:
        idx = np.random.default_rng(0).choice(x.size, MEDIAN_SUBSAMPLE, replace=False)
        x = x[idx]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN differences, as in pdist
        med = _median_difference(np.sort(x))
    if med == 0.0:
        raise DegenerateDataError("degenerate bandwidth: pairwise distances have zero median")
    return med


_BRACKET_SAMPLE = 4096  # pair differences drawn to bracket the median


def _row_ends(s: np.ndarray, pivot: float, keep) -> np.ndarray:
    """Per row i of sorted s, the first column j > i (or s.size) at which
    keep(s[j] - s[i], pivot) fails. Rounding is monotone, so the computed
    differences of a row never decrease in j and a binary search per row
    counts exactly the differences a full listing would."""
    lo, hi = np.arange(1, s.size + 1), np.full(s.size, s.size)
    rows = np.flatnonzero(lo < hi)
    while rows.size:
        mid = (lo[rows] + hi[rows]) // 2
        kept = keep(s[mid] - s[rows], pivot)
        lo[rows] = np.where(kept, mid + 1, lo[rows])
        hi[rows] = np.where(kept, hi[rows], mid)
        rows = rows[lo[rows] < hi[rows]]
    return lo


def _median_difference(s: np.ndarray) -> float:
    """np.median of the differences s[j] - s[i], j > i, of sorted s: the
    middle order statistic(s) of the implicit matrix of sorted differences
    (Johnson & Mizoguchi 1978). Order statistics of a fixed sample of
    differences bracket the middle ranks; binary searches count the
    differences below and inside the bracket; only the band inside it is
    listed and partitioned, or every difference if the bracket misses."""
    m = s.size
    if np.isnan(np.diff(s)).any():  # NaN, or inf - inf: the median is NaN
        return float("nan")
    pairs = m * (m - 1) // 2
    ranks = [(pairs - 1) // 2, pairs // 2]  # one middle rank, or two to average
    start, stop = np.arange(1, m + 1), np.full(m, m)  # row i lists columns start..stop-1
    if pairs > _BRACKET_SAMPLE:
        i, j = np.random.default_rng(0).integers(0, m, (2, _BRACKET_SAMPLE))
        i, j = np.minimum(i, j)[i != j], np.maximum(i, j)[i != j]
        sample = np.sort(s[j] - s[i])
        margin = 2.0 * np.sqrt(sample.size)  # four standard errors of a sample rank
        lo = int(max(0.0, ranks[0] / pairs * sample.size - margin))
        hi = int(min(sample.size - 1.0, ranks[1] / pairs * sample.size + margin))
        band_start = _row_ends(s, sample[lo], np.less)
        band_stop = _row_ends(s, sample[hi], np.less_equal)
        below = int((band_start - start).sum())
        if below <= ranks[0] and ranks[1] < int((band_stop - start).sum()):
            start, stop, ranks = band_start, band_stop, [r - below for r in ranks]
    counts = stop - start
    cols = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - start, counts)
    band = s[cols] - s[np.repeat(np.arange(m), counts)]
    band.partition(ranks)
    return float(np.mean(band[ranks[0]:ranks[1] + 1]))


@dataclass
class HsicResult:
    statistic: float
    threshold: float
    bandwidths: tuple[float, float]
    n: int
    alpha: float


_CHUNK = 512  # Gram blocks are _CHUNK x _CHUNK
_STRIP = 128  # rows per strip: a worker's four strip buffers (0.5 MB each) stay in its L2


def _kernel_scales(bandwidths: tuple[float, float]) -> list[float]:
    """sqrt(0.5) / bandwidth per side, the factor _gram's inputs carry;
    bandwidths that are not finite and > 0 raise DataError."""
    if not all(np.isfinite(bw) and bw > 0 for bw in bandwidths):
        raise DataError(f"bandwidths must be finite and positive, got {bandwidths}")
    return [np.sqrt(0.5) / bw for bw in bandwidths]


def _differences(u: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out with u_i - v_j: a broadcast copy of u less one contiguous
    subtraction of v, the same bits as np.subtract(u[:, None], v[None, :]),
    faster."""
    out[...] = u[:, None]
    return np.subtract(out, v, out=out)


def _gram(u: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out with the Gaussian kernel exp(-(u_i - v_j)^2), in place, from
    inputs already scaled by sqrt(0.5) / bandwidth."""
    d = _differences(u, v, out)
    return np.exp(np.negative(np.square(d, out=d), out=d), out=d)


def _worker_count(tasks: int) -> int:
    """One worker per CPU of the process's affinity mask, at most one per task."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, tasks))


def _add_up(parts: list, n: int) -> np.ndarray:
    """Full-length rows from per-block (row part, column part, ...) results
    in block order: a block's row part goes to its own rows and its column
    part, None on the diagonal, to those of its mirror block."""
    total = np.zeros(parts[0][1][0].shape[:-1] + (n,))
    for (i, j), (row, col, *_) in parts:
        total[..., i:i + _CHUNK] += row
        if col is not None:
            total[..., j:j + _CHUNK] += col
    return total


def _sweep(u: np.ndarray, v: np.ndarray, reduce_block) -> tuple[np.ndarray, list]:
    """The row sums' totals per side, and [((i, j), reduce_block(strips, i,
    j, offsets))] in block order, from two exact passes over the Gram blocks
    with j >= i of scaled inputs u and v.

    Pass 1 takes each block's row sums and, off the diagonal, its column
    sums, which are the row sums of its mirror block, and from them the
    centring offsets: Kc = K - offset_i - offset_j. In pass 2, strips yields
    (first row, K strip, L strip, two spare strips) down block (i, j).
    Worker w of a thread pool made for this call takes blocks w,
    w + workers, ... and builds each in strips of _STRIP rows in its own
    four strip-sized buffers, calling only _gram and numpy. This thread adds
    the per-block results up in block order, so any worker count gives the
    same bits."""
    n = u.size
    blocks = [(i, j) for i in range(0, n, _CHUNK) for j in range(i, n, _CHUNK)]
    workers = _worker_count(len(blocks))
    size = min(_STRIP, n) * min(_CHUNK, n)
    bufs = [[np.empty(size) for _ in range(4)] for _ in range(workers)]

    def strips(w, i, j):
        cols = slice(j, min(j + _CHUNK, n))
        for r in range(i, min(i + _CHUNK, n), _STRIP):
            rows = slice(r, min(r + _STRIP, n))
            shape = (rows.stop - r, cols.stop - j)
            k, l, *spares = (b[:shape[0] * shape[1]].reshape(shape) for b in bufs[w])
            yield r, _gram(u[rows], u[cols], k), _gram(v[rows], v[cols], l), *spares

    def block_sums(strips, i, j):
        """Row sums of the K and L blocks and, off the diagonal, their column
        sums. The column sums run on from strip to strip: the sum so far is
        added into a strip's first row before its rows are added down, one
        after another, so they are the bits of the whole block's column
        sums, and so are the centring offsets built from them."""
        row_sums = np.empty((2, min(_CHUNK, n - i)))
        col_sums = np.zeros((2, min(_CHUNK, n - j))) if j > i else None
        for r, *sides, _, _ in strips:
            for side, b in enumerate(sides):
                np.sum(b, axis=1, out=row_sums[side, r - i:r - i + b.shape[0]])
                if col_sums is not None:
                    b[0] += col_sums[side]
                    np.sum(b, axis=0, out=col_sums[side])
        return row_sums, col_sums

    with ThreadPoolExecutor(workers) as pool:
        def sweep(reduce_block, *args):
            parts = list(pool.map(lambda w: [reduce_block(strips(w, i, j), i, j, *args)
                                             for i, j in blocks[w::workers]], range(workers)))
            return [(b, parts[k % workers][k // workers]) for k, b in enumerate(blocks)]

        rows = _add_up(sweep(block_sums), n)
        sums = rows.sum(axis=1)
        offsets = rows / n - sums[:, None] / (2 * n * n)
        return sums, sweep(reduce_block, offsets)


def _centre(gram: np.ndarray, offsets: np.ndarray, r: int, j: int, out: np.ndarray) -> np.ndarray:
    """out = the strip gram, from row r and column j, less its rows' and its
    columns' centring offsets."""
    np.subtract(gram, offsets[r:r + gram.shape[0], None], out=out)
    out -= offsets[None, j:j + gram.shape[1]]
    return out


def _centred_moments(strips, i: int, j: int, offsets: np.ndarray) -> tuple[float, float, float]:
    """The sums of Kc o Lc and of its square over block (i, j), and of its
    square's diagonal, 0.0 off the diagonal."""
    total = sq_total = sq_trace = 0.0
    for r, kc, lc, _, _ in strips:
        for side, b in ((0, kc), (1, lc)):
            _centre(b, offsets[side], r, j, b)
        prod = np.multiply(kc, lc, out=kc)
        total += float(prod.sum())
        np.square(prod, out=prod)
        sq_total += float(prod.sum())
        if j == i:  # the strip's part of the block diagonal starts at column r - i
            sq_trace += float(np.trace(prod[:, r - i:]))
    return total, sq_total, sq_trace


def _blockwise_moments(u: np.ndarray, v: np.ndarray, n: int) -> tuple[float, float, float, float]:
    """(statistic, variance, mu_x, mu_y) of scaled inputs from one _sweep:
    sum(Kc o Lc) equals trace(K H L H) because H is idempotent, and the
    variance needs the off-diagonal sum of (Kc o Lc)^2."""
    sums, parts = _sweep(u, v, _centred_moments)
    stat = var_sum = var_diag = 0.0
    for (i, j), (total, sq_total, sq_trace) in parts:
        weight = 1.0 if j == i else 2.0  # the mirror block counts too
        stat += weight * total
        var_sum += weight * sq_total
        var_diag += sq_trace
    mu_x, mu_y = (sums - n) / (n * (n - 1))  # unit diagonal of the Gaussian kernel
    var = (var_sum - var_diag) / (36.0 * n * (n - 1))
    var *= 72.0 * (n - 4) * (n - 5) / (n * (n - 1) * (n - 2) * (n - 3))
    return stat / n, var, mu_x, mu_y


def _loss_sums(u: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray]:
    """sum(Kc o Lc) and, per side, sum_j m_ij (w_i - w_j) for every row i,
    from one _sweep of scaled inputs, where m = K o Lc for w = u and
    m = L o Kc for w = v. The products are symmetric and the differences
    antisymmetric, so a block off the diagonal gives its mirror block's rows
    as minus its column sums. Kc o Lc, unlike K o Lc or L o Kc, does not
    move with a rounding of the offsets, whose rows sum to 0; and the
    differences, unlike w_i sum_j m_ij - (m @ w)_i, do not cancel for inputs
    far from 0."""
    n = u.size

    def loss_block(strips, i, j, offsets):
        row = np.empty((2, min(_CHUNK, n - i)))
        col = np.zeros((2, min(_CHUNK, n - j))) if j > i else None
        total = 0.0
        for r, k, l, kc, lc in strips:
            rows, cols = slice(r, r + k.shape[0]), slice(j, j + k.shape[1])
            _centre(k, offsets[0], r, j, kc)
            _centre(l, offsets[1], r, j, lc)
            total += float(np.vdot(kc, lc))
            # K o Lc over Lc and L o Kc over Kc, then the differences over K and L
            products = np.multiply(k, lc, out=lc), np.multiply(l, kc, out=kc)
            for side, (m, w, d) in enumerate(zip(products, (u, v), (k, l))):
                m *= _differences(w[rows], w[cols], d)
                np.sum(m, axis=1, out=row[side, r - i:rows.stop - i])
                if col is not None:
                    col[side] -= m.sum(axis=0)
        return row, col, total

    parts = _sweep(u, v, loss_block)[1]
    value = sum((1.0 if j == i else 2.0) * total for (i, j), (*_, total) in parts)
    return value, _add_up(parts, n)


def gamma_quantile(q: float, shape: float, scale: float) -> float:
    """The bits of scipy.stats.gamma.ppf(q, a=shape, scale=scale) for q in
    (0, 1), without importing scipy.stats: gammaincinv(shape, q) * scale + 0,
    and NaN unless shape and scale are > 0 (a shape that underflowed to 0
    included), where gammaincinv alone can give 0. scipy.special is imported
    here, not with the module: it is most of the CLI's import time, and only
    this threshold uses it."""
    from scipy.special import gammaincinv

    if not (shape > 0 and scale > 0):
        return math.nan
    return float(gammaincinv(shape, q) * scale)


def hsic_statistic(x: np.ndarray, y: np.ndarray, alpha: float = DEFAULT_ALPHA,
                   bandwidths: tuple[float, float] | None = None) -> HsicResult:
    """Biased-estimator test statistic n*HSIC_b with its gamma threshold.

    Exact over all n points: two passes over the symmetric Gram blocks with
    j >= i, split over a thread pool with one worker per CPU of the affinity
    mask (taskset limits it). A worker builds each block in strips of
    _STRIP x _CHUNK, in strip buffers of 0.5 MB, of which the statistic
    writes two. The per-block sums are added in block order, so the result
    is bit-identical for any worker count. Non-finite samples, bandwidths that are not
    finite and > 0, and an alpha outside (0, 1) raise DataError.
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
    if not 0 < alpha < 1:  # NaN included
        raise DataError(f"alpha must lie in (0, 1), got {alpha}")
    if bandwidths is None:
        bandwidths = (median_bandwidth(x), median_bandwidth(y))
    sx, sy = _kernel_scales(bandwidths)
    stat, var, mu_x, mu_y = _blockwise_moments(x * sx, y * sy, n)
    # gamma moment-matched to the null mean/variance of the statistic
    mean = max((1.0 + mu_x * mu_y - mu_x - mu_y) / n, 1e-300)
    var = max(var, 1e-300)
    shape = mean * mean / var
    scale = var * n / mean
    threshold = gamma_quantile(1.0 - alpha, shape, scale)
    return HsicResult(statistic=stat, threshold=threshold,
                      bandwidths=bandwidths, n=n, alpha=alpha)


def hsic_loss(x: np.ndarray, y: np.ndarray,
              bandwidths: tuple[float, float] | None = None
              ) -> tuple[float, np.ndarray, np.ndarray]:
    """n*HSIC_b of column vectors (n x 1) and its analytic gradients with
    respect to x and y, from the block sweep of hsic_statistic.

    Bandwidths default to the median heuristic on the current values and are
    excluded from differentiation; a degenerate (constant) input falls back
    to bandwidth 1, where the centered statistic is 0 anyway. They are
    computed on the calling thread. The sweep's second pass forms Kc o Lc,
    K o Lc and L o Kc strip by strip (_loss_sums), so the value and
    gradients are the same bits for any worker count and no n x n buffer is
    held.
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
    value, sums = _loss_sums(x[:, 0] * scales[0], y[:, 0] * scales[1])
    # d/dw_i sum(Kc o Lc) / n = -(4/n) sum_j m_ij (w_i - w_j) with m = K o Lc
    # for x and m = L o Kc for y, then the chain through the scale
    grad_x, grad_y = ((-4.0 * scale / n) * s[:, None] for s, scale in zip(sums, scales))
    return value / n, grad_x, grad_y
