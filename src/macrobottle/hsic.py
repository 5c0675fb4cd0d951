"""Kernel independence testing with Gaussian kernels.

The test statistic is n times the biased HSIC estimator,
trace(K H L H) / n with H = I - (1/n) 11^T, computed exactly from the
upper-triangle Gram blocks and compared with a level-alpha critical value
from a gamma distribution moment-matched to the statistic's null mean and
variance. The statistic and the transform fit's loss share one sweep
(_sweep) over strip tasks, 128 rows of a 512 x 512 Gram block each: one
thread per CPU of the process's affinity mask takes every workers-th task
and builds its K and L strips stacked in one buffer, so each numpy call
covers both kernels. The differences u_i - u_j are a k = 2 matmul of
(u_i, 1) with (1, -u_j): both products are exact and the one addition
rounds as the subtraction does, so they are np.subtract's bits (a zero is
always +0) without a broadcast fill. Row and column sums are matmuls with a
ones vector. The row sums that centre the Grams are a Gauss transform, which
a Taylor series about the centres of cells of width 1/8 gives in
O(n * cells) on the calling thread (_gram_row_sums; Greengard & Strain
1991, "The fast Gauss transform"): its cut is below 2^-58 of a row sum, and
it reads within 6e-16 relative of a dense long-double row sum. Where it
would cost more than the strips (more than n / 20 occupied cells) or its
cells do not hold, a first strip pass takes the row sums instead. The one
remaining pass over all the strips hands the centred strips to a reducer,
one for the statistic and its null moments and one for the loss and its
analytic gradient. Workers write per-strip results into arrays the calling
thread made, and it adds them up in task order, so the statistic, the loss
and its gradients are the same bits for any number of CPUs. The statistic
is within 1e-15 of its sum's conditioning, sum|Kc o Lc| / n, of a dense
long-double computation, the loss value within 1e-15 of the same
conditioning of a dense n x n one and its gradients within 1e-12 of their
largest entry. No n x n buffer is held: on two CPUs of a Xeon with one BLAS
thread, a statistic at n = 8000 takes about 0.18 s and peaks at 5.9 MB
(tracemalloc), and a loss call at n = 1000, a transform fit's minibatch,
about 10 ms and 4.6 MB. Bandwidths are set by the median heuristic, an
exact selection of the median pairwise distance, and treated as constants.
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
_STRIP = 128  # rows per strip task: a worker's two (2, _STRIP, _CHUNK) buffers, 1 MB each


def _kernel_scales(bandwidths: tuple[float, float]) -> list[float]:
    """sqrt(0.5) / bandwidth per side, the factor the swept inputs carry;
    bandwidths that are not finite and > 0 raise DataError."""
    if not all(np.isfinite(bw) and bw > 0 for bw in bandwidths):
        raise DataError(f"bandwidths must be finite and positive, got {bandwidths}")
    return [np.sqrt(0.5) / bw for bw in bandwidths]


def _worker_count(tasks: int) -> int:
    """One worker per CPU of the process's affinity mask, at most one per task."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, tasks))


def _outer_sum_factors(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per side s of a and b, shaped (2, n), the stacked factors (a[s, i], 1)
    and (1, b[s, j]) that _outer_sum multiplies."""
    return np.stack((a, np.ones_like(a)), axis=-1), np.stack((np.ones_like(b), b), axis=1)


def _outer_sum(factors: tuple[np.ndarray, np.ndarray], rows: slice, cols: slice,
               out: np.ndarray) -> np.ndarray:
    """out[s] = a[s, rows, None] + b[s, None, cols] for the factors of a and b,
    as one k = 2 np.matmul per side. Both products are exact and the matmul
    adds them with one rounding, so out holds the bits of np.add, except that
    a zero sum is always +0."""
    return np.matmul(factors[0][:, rows], factors[1][:, :, cols], out=out)


# The row sums r_i = sum_j exp(-(w_i - w_j)^2) of a Gram are a Gauss
# transform. With t = w_i - a for the centre a of the target's cell and
# d = a - w_j, exp(-(t + d)^2) = exp(-t^2) exp(-d^2) sum_k (-2td)^k / k!.
# Cells of width rho / R hold |t| <= rho / (2R), so a source with |d| <= R has
# |2td| <= rho, and cutting the series after k = K leaves at most
# e^(2 rho) rho^(K+1) / (K+1)! of its own term: with rho = 1 and K = 19, the
# least K with rho^(K+1) / (K+1)! < 2^-60, less than 2^-58. A farther source,
# with R = 8, adds less than exp(-(R - 1/16)^2) < 2^-90 and its cut series
# less than exp(-(R - 1/16)^2) / (K+1)!, while a row sum is at least 1, its
# own term. So the cut is below the rounding of a float64 row sum.
_CELLS_PER_UNIT = 8  # R / rho
_TERMS = 20  # K + 1
_INVERSE_FACTORIALS = np.array([1.0 / math.factorial(k) for k in range(_TERMS)])


def _gram_row_sums(w: np.ndarray) -> np.ndarray | None:
    """sum_j exp(-(w_i - w_j)^2) for every i, by the series above about the
    centres of the occupied cells, or None where building the Gram strips
    costs less or the cells do not hold: the moments take _TERMS passes over
    all n sources per cell, so more than n / _TERMS occupied cells, cell
    indices that are not finite, or a centre that rounds more than half a
    cell off its targets leave the row sums to the strips. Per cell g and
    k, the moment M_k(g) = sum_j exp(-d_j^2) d_j^k is a pairwise np.sum over
    the sorted sources; a target's row sum is exp(-t^2) times the Horner sum
    of M_k(g) (-2t)^k / k!. Cells are taken a chunk at a time, so no array
    holds more than a strip buffer's 2 * _STRIP * _CHUNK entries (one cell
    per chunk beyond n = that many)."""
    order = np.argsort(w, kind="stable")
    s = w[order]
    n = s.size
    with np.errstate(over="ignore"):  # beyond the largest float / _CELLS_PER_UNIT
        cells = np.floor(s * _CELLS_PER_UNIT)
    if not np.isfinite(cells[[0, -1]]).all():
        return None
    bounds = np.flatnonzero(np.diff(cells, prepend=-np.inf, append=np.inf))
    groups = bounds.size - 1
    if groups * _TERMS > n:
        return None
    centres = (cells[bounds[:-1]] + 0.5) / _CELLS_PER_UNIT
    cell = np.repeat(np.arange(groups), np.diff(bounds))
    t = s - centres[cell]
    if np.abs(t).max() > 0.5 / _CELLS_PER_UNIT:  # cells + 0.5 rounds past 2^52 cells
        return None
    z, rows = -2.0 * t, np.empty(n)
    chunk = max(1, 2 * _STRIP * _CHUNK // n)
    for g in range(0, groups, chunk):
        d = np.subtract.outer(centres[g:g + chunk], s)
        power = np.exp(-np.square(d))
        moments = np.empty((_TERMS, d.shape[0]))
        moments[0] = power.sum(axis=1)
        for k in range(1, _TERMS):
            moments[k] = np.multiply(power, d, out=power).sum(axis=1)
        moments *= _INVERSE_FACTORIALS[:, None]
        targets = slice(bounds[g], bounds[g + d.shape[0]])
        index = cell[targets] - g
        total = moments[-1, index]
        for k in range(_TERMS - 2, -1, -1):
            total = total * z[targets] + moments[k, index]
        rows[order[targets]] = np.exp(-np.square(t[targets])) * total
    return rows


def _sweep(u: np.ndarray, v: np.ndarray, reduce_strip,
           mirror=None) -> tuple[np.ndarray, list, np.ndarray | None]:
    """(the row sums' totals per side, reduce_strip's values in task order,
    the row totals of the strips it returns or None) from the Grams' row
    sums and one exact pass over the Gram blocks (i, j) with j >= i of
    scaled inputs u and v.

    The row sums, from which come the centring offsets
    Kc = K - (offset_i + offset_j), are _gram_row_sums' series on the calling
    thread; where it declines for either side, a first strip pass takes them
    for both. A task (i, j, r) is the _STRIP rows from row r of block (i, j).
    Worker w of a thread pool made for this call takes tasks w, w + workers,
    ... and builds a task's K and L strips stacked in one (2, rows, cols)
    buffer of its own: the differences by _outer_sum, then square, negative
    and exp, one call each for both sides. The strip pass takes the strips'
    row sums and, off the diagonal, their column sums, which are rows of the
    mirror block, as matmuls with a ones vector. The reducing pass builds
    the centred strips in the worker's second buffer (_outer_sum and one
    subtraction), then calls reduce_strip(diagonal, rows, cols, grams,
    centred), where diagonal is the strip's column of its first diagonal
    entry, or None off the diagonal, for (value, strip or None). With mirror
    given, it sums the returned strips as the strip pass sums the Grams, and
    mirror (np.add for a symmetric strip, np.subtract for an antisymmetric
    one) adds the column sums into the mirror rows. Workers write the
    per-strip sums into arrays made here, and this thread adds them up in
    task order, so any worker count gives the same bits."""
    n = u.size
    w = np.stack((u, v))
    row_sums = [_gram_row_sums(side) for side in w]
    tasks = [(i, j, r) for i in range(0, n, _CHUNK) for j in range(i, n, _CHUNK)
             for r in range(i, min(i + _CHUNK, n), _STRIP)]
    workers = _worker_count(len(tasks))
    size = 2 * min(_STRIP, n) * min(_CHUNK, n)
    bufs = [(np.empty(size), np.empty(size)) for _ in range(workers)]
    ones = np.ones(min(_CHUNK, n))
    differences, centring = _outer_sum_factors(w, -w), None

    def work(k, reduce, values, row_parts, col_parts):
        for t in range(k, len(tasks), workers):
            i, j, r = tasks[t]
            rows, cols = slice(r, min(r + _STRIP, n)), slice(j, min(j + _CHUNK, n))
            shape = (2, rows.stop - r, cols.stop - j)
            grams, spare = (b[:2 * shape[1] * shape[2]].reshape(shape) for b in bufs[k])
            _outer_sum(differences, rows, cols, grams)
            np.exp(np.negative(np.square(grams, out=grams), out=grams), out=grams)
            if centring is not None:
                np.subtract(grams, _outer_sum(centring, rows, cols, spare), out=spare)
            values[t], m = reduce(r - i if j == i else None, rows, cols, grams, spare)
            if m is not None:
                np.matmul(m, ones[:shape[2]], out=row_parts[t, :, :shape[1]])
                if j > i:
                    np.matmul(ones[:shape[1]], m, out=col_parts[t, :, :shape[2]])

    def run(pool, reduce, mirror):
        values = [None] * len(tasks)
        parts = (None, None) if mirror is None else (np.empty((len(tasks), 2, min(_STRIP, n))),
                                                     np.empty((len(tasks), 2, min(_CHUNK, n))))
        list(pool.map(lambda k: work(k, reduce, values, *parts), range(workers)))
        if mirror is None:
            return values, None
        row_parts, col_parts = parts
        total = np.zeros((2, n))
        for t, (i, j, r) in enumerate(tasks):
            part = total[:, r:r + _STRIP]
            part += row_parts[t, :, :part.shape[1]]
            if j > i:
                part = total[:, j:j + _CHUNK]
                mirror(part, col_parts[t, :, :part.shape[1]], out=part)
        return values, total

    with ThreadPoolExecutor(workers) as pool:
        if any(side is None for side in row_sums):
            row_sums = run(pool, lambda diagonal, rows, cols, grams, spare: (None, grams), np.add)[1]
        row_sums = np.stack(row_sums)
        sums = row_sums.sum(axis=1)
        offsets = row_sums / n - sums[:, None] / (2 * n * n)
        centring = _outer_sum_factors(offsets, offsets)
        return (sums, *run(pool, reduce_strip, mirror))


def _centred_moments(diagonal, rows, cols, grams, centred) -> tuple[tuple, None]:
    """The sums of Kc o Lc and of its square over a strip, doubled off the
    diagonal for the mirror block, and of its square's diagonal (0.0 off
    the diagonal)."""
    prod = np.multiply(centred[0], centred[1], out=centred[0])
    weight = 1.0 if diagonal is not None else 2.0
    total = weight * float(prod.sum())
    np.square(prod, out=prod)
    sq_trace = float(np.trace(prod[:, diagonal:])) if diagonal is not None else 0.0
    return (total, weight * float(prod.sum()), sq_trace), None


def _blockwise_moments(u: np.ndarray, v: np.ndarray, n: int) -> tuple[float, float, float, float]:
    """(statistic, variance, mu_x, mu_y) of scaled inputs from one _sweep:
    sum(Kc o Lc) equals trace(K H L H) because H is idempotent, and the
    variance needs the off-diagonal sum of (Kc o Lc)^2. The strips' sums are
    added exactly (math.fsum), in any order the same bits."""
    sums, values, _ = _sweep(u, v, _centred_moments)
    stat, var_sum, var_diag = (math.fsum(part) for part in zip(*values))
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
    w = np.stack((u, v))
    differences = _outer_sum_factors(w, -w)

    def loss_strip(diagonal, rows, cols, grams, centred):
        total = (1.0 if diagonal is not None else 2.0) * float(np.vdot(centred[0], centred[1]))
        m = np.multiply(grams, centred[::-1], out=grams)  # K o Lc and L o Kc
        return total, np.multiply(m, _outer_sum(differences, rows, cols, centred), out=m)

    _, values, rows = _sweep(u, v, loss_strip, np.subtract)
    return math.fsum(values), rows


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

    Exact over all n points: the Grams' row sums by _gram_row_sums' series
    (cut below 2^-58 of a row sum, measured within 6e-16 relative of a
    dense long-double row sum), or by a strip pass where more than
    n / 20 cells are occupied, then one pass over the symmetric Gram blocks
    with j >= i, dealt out as _STRIP x _CHUNK strip tasks to a thread pool
    with one worker per CPU of the affinity mask (taskset limits it). A
    worker builds the K and L strips of a task together in its own two
    1 MB buffers. The per-strip sums are added exactly, so the result is
    bit-identical for any worker count. At n = 8000 on two CPUs it takes
    about 0.18 s and peaks at 5.9 MB (tracemalloc). Non-finite samples,
    bandwidths that are not finite and > 0, and an alpha outside (0, 1)
    raise DataError.
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
    computed on the calling thread, and so are the centring row sums, by
    _gram_row_sums' series (cut below 2^-58 of a row sum) or, where more
    than n / 20 cells are occupied, by a strip pass. The sweep's reducing
    pass forms Kc o Lc, K o Lc and L o Kc strip task by strip task
    (_loss_sums), and the per-strip results are added up in task order, so
    the value and gradients are the same bits for any worker count and no
    n x n buffer is held. Non-finite samples raise DataError, with
    bandwidths given or not.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 1 or x.shape != y.shape:
        raise DataError(f"hsic_loss expects matching (n, 1) batches, got "
                        f"{x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("hsic_loss needs finite samples")
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
