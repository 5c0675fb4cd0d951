"""Kernel independence testing with Gaussian kernels.

The test statistic is n times the biased HSIC estimator,
trace(K H L H) / n with H = I - (1/n) 11^T, computed exactly from the
upper-triangle Gram blocks, swept by one thread per CPU of the process's
affinity mask and summed in a fixed block order, and compared with a
level-alpha critical value from a gamma distribution moment-matched to the
statistic's null mean and variance. Each block is built and reduced in row
strips small enough for a core's L2 cache; adding up strip sums instead of
whole-block sums changes only the addition order, within 1e-14 relative of
the whole-block result. The same statistic, built with
the same kernel code (_gram), serves as a training loss with an analytic
gradient, computed on up to two threads; a training loop keeps one
LossWorkspace (that pool, the two Gram buffers and the threads' strip
buffers) for all its steps. Bandwidths are set by the median heuristic, an
exact selection of the median pairwise distance, and treated as constants.
Statistic, loss and bandwidths are the same bits for any number of CPUs, and
the loss the same bits with or without a workspace.
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
_STRIP = 128  # rows per strip: a worker's two strip buffers (0.5 MB each) stay in its L2


def _kernel_scales(bandwidths: tuple[float, float]) -> list[float]:
    """sqrt(0.5) / bandwidth per side, the factor _gram's inputs carry;
    bandwidths that are not finite and > 0 raise DataError."""
    if not all(np.isfinite(bw) and bw > 0 for bw in bandwidths):
        raise DataError(f"bandwidths must be finite and positive, got {bandwidths}")
    return [np.sqrt(0.5) / bw for bw in bandwidths]


def _gram(u: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out with the Gaussian kernel exp(-(u_i - v_j)^2), in place, from
    inputs already scaled by sqrt(0.5) / bandwidth. The difference is a
    broadcast copy of u less one contiguous subtraction of v: the same bits
    as np.subtract(u[:, None], v[None, :]), faster."""
    out[...] = u[:, None]
    np.subtract(out, v, out=out)
    return np.exp(np.negative(np.square(out, out=out), out=out), out=out)


def _worker_count(tasks: int) -> int:
    """One worker per CPU of the process's affinity mask, at most one per task."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, tasks))


def _blockwise_moments(u: np.ndarray, v: np.ndarray, n: int) -> tuple[float, float, float, float]:
    """(statistic, variance, mu_x, mu_y) of scaled inputs in two exact passes
    over the Gram blocks with j >= i. Worker w of a thread pool made for this
    call takes blocks w, w + workers, ... and sweeps each in strips of _STRIP
    rows, built in place in its own two strip-sized buffers, calling only
    _gram and numpy. A block's strip sums are added in strip order by its
    worker, and this thread adds the per-block sums up in block order, so any
    worker count gives the same bits."""
    uv = (u, v)
    blocks = [(i, j) for i in range(0, n, _CHUNK) for j in range(i, n, _CHUNK)]
    workers = _worker_count(len(blocks))
    size = min(_STRIP, n) * min(_CHUNK, n)
    bufs = [(np.empty(size), np.empty(size)) for _ in range(workers)]

    def strips(w, i, j):
        """(first row, K strip, L strip) down block (i, j), in worker w's buffers."""
        cols = slice(j, min(j + _CHUNK, n))
        for r in range(i, min(i + _CHUNK, n), _STRIP):
            rows = slice(r, min(r + _STRIP, n))
            shape = (rows.stop - r, cols.stop - j)
            yield r, *(_gram(s[rows], s[cols], b[:shape[0] * shape[1]].reshape(shape))
                       for s, b in zip(uv, bufs[w]))

    def sweep(pool, reduce_block):
        """(block, reduce_block(w, i, j)) in block order."""
        parts = list(pool.map(lambda w: [reduce_block(w, i, j) for i, j in blocks[w::workers]],
                              range(workers)))
        return zip(blocks, (parts[k % workers][k // workers] for k in range(len(blocks))))

    def block_sums(w, i, j):
        """Row sums of the K and L blocks and, off the diagonal, their column
        sums, which are the row sums of the mirror block. The column sums
        run on from strip to strip: the sum so far is added into a strip's
        first row before its rows are added down, one after another, so they
        are the bits of the whole block's column sums, and so are the
        centring offsets built from them."""
        row_sums = np.empty((2, min(_CHUNK, n - i)))
        col_sums = np.zeros((2, min(_CHUNK, n - j))) if j > i else None
        for r, *sides in strips(w, i, j):
            for side, b in enumerate(sides):
                np.sum(b, axis=1, out=row_sums[side, r - i:r - i + b.shape[0]])
                if col_sums is not None:
                    b[0] += col_sums[side]
                    np.sum(b, axis=0, out=col_sums[side])
        return row_sums, col_sums

    def centred_moments(w, i, j):
        total = sq_total = sq_trace = 0.0
        for r, kc, lc in strips(w, i, j):
            for side, b in ((0, kc), (1, lc)):
                b -= offsets[side, r:r + b.shape[0], None]
                b -= offsets[side, None, j:j + b.shape[1]]
            prod = np.multiply(kc, lc, out=kc)
            total += float(prod.sum())
            np.square(prod, out=prod)
            sq_total += float(prod.sum())
            if j == i:  # the strip's part of the block diagonal starts at column r - i
                sq_trace += float(np.trace(prod[:, r - i:]))
        return total, sq_total, sq_trace

    with ThreadPoolExecutor(workers) as pool:
        # pass 1: row sums; block (i, j) gives those of its mirror as column sums
        rows = np.zeros((2, n))
        for (i, j), (row, col) in sweep(pool, block_sums):
            rows[:, i:i + _CHUNK] += row
            if col is not None:
                rows[:, j:j + _CHUNK] += col
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
    mask (taskset limits it), each with two _CHUNK x _CHUNK buffers. The
    per-block sums are added in block order, so the result is bit-identical
    for any worker count. Non-finite samples, bandwidths that are not
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


_LOSS_STRIP = 64  # rows per loss strip: a worker's two strip buffers are 0.5 MB each at n = 1000


class LossWorkspace:
    """What hsic_loss reuses from step to step of one fit: a thread pool of
    up to two workers, no more than the affinity mask's CPUs; two n x n
    buffers, K and L, for minibatches of up to n points; and two strip
    buffers of _LOSS_STRIP rows per worker, where centred rows live. All
    buffers are allocated on the thread that makes the workspace, so they
    go back to the heap its later allocations draw from (freed in a worker,
    they raised the process's peak memory). Leaving its with block shuts the
    pool down."""

    def __init__(self, n: int):
        self.n = n
        self.workers = _worker_count(2)
        self._grams = [np.empty(n * n) for _ in range(2)]
        strip = min(_LOSS_STRIP, n) * n
        self._strips = [(np.empty(strip), np.empty(strip)) for _ in range(self.workers)]
        self.pool = ThreadPoolExecutor(self.workers)

    def __enter__(self) -> "LossWorkspace":
        return self

    def __exit__(self, *exc) -> None:
        self.pool.shutdown()

    def loss(self, u: np.ndarray, v: np.ndarray, scales: list[float]
             ) -> tuple[float, np.ndarray, np.ndarray]:
        """hsic_loss of inputs already scaled by scales, in contiguous m x m
        views of the Gram buffers' first m * m entries. Each side's worker
        builds its Gram in strips and takes its row sums; then the workers
        split the row strips, each writing only its own rows of K and L and
        its own strip buffers; then each side's worker takes its gradient
        from the whole product in its buffer, whose matrix-vector product
        would differ in the last bits if taken strip by strip."""
        n = u.size
        if n > self.n:
            raise ValueError(f"a minibatch of {n} does not fit a workspace for {self.n}")
        k, l = (b[:n * n].reshape(n, n) for b in self._grams)
        strip = min(_LOSS_STRIP, n)
        row_sums = np.empty((2, n))

        def offsets(w, gram, sums):
            for r in range(0, n, strip):
                np.sum(_gram(w[r:r + strip], w, gram[r:r + strip]), axis=1, out=sums[r:r + strip])
            return sums / n - gram.mean() / 2  # Kc = K - offset_i - offset_j

        off_k, off_l = self.pool.map(offsets, (u, v), (k, l), row_sums)

        def products(worker):
            # K o Lc goes into K's rows and L o Kc into L's, once a strip holds
            # both sides' centred rows
            kc_buf, lc_buf = self._strips[worker]
            for r in range(worker * strip, n, self.workers * strip):
                s = slice(r, min(r + strip, n))
                kc, lc = (b[:(s.stop - r) * n].reshape(-1, n) for b in (kc_buf, lc_buf))
                for gram, off, c in ((k, off_k, kc), (l, off_l, lc)):
                    np.subtract(gram[s], off[s, None], out=c)
                    c -= off[None, :]
                np.multiply(k[s], lc, out=k[s])
                np.multiply(l[s], kc, out=l[s])

        def gradient(w, m, scale):
            # d/dw_i sum(Kc o Lc) / n = -(4/n) sum_j m_ij (w_i - w_j) with m = K o Lc
            # for x and m = L o Kc for y, then the chain through the scale
            return (-4.0 * scale / n) * (w * m.sum(axis=1) - m @ w)[:, None]

        list(self.pool.map(products, range(self.workers)))
        grad_x, grad_y = self.pool.map(gradient, (u, v), (k, l), scales)
        return float(l.sum() / n), grad_x, grad_y


def hsic_loss(x: np.ndarray, y: np.ndarray,
              bandwidths: tuple[float, float] | None = None,
              workspace: LossWorkspace | None = None
              ) -> tuple[float, np.ndarray, np.ndarray]:
    """n*HSIC_b of column vectors (n x 1) and its analytic gradients with
    respect to x and y, the Grams built and centred as in hsic_statistic.

    Bandwidths default to the median heuristic on the current values and are
    excluded from differentiation; a degenerate (constant) input falls back
    to bandwidth 1, where the centered statistic is 0 anyway. They are
    computed on the calling thread. The Grams, their centring and the
    gradients run on the thread pool of a LossWorkspace: the one given,
    which a training loop keeps for all its steps, or one made for this
    call. Elementwise steps and row sums give an entry the same bits in any
    strip, and means, sums and matrix-vector products are taken over whole
    buffers, so the value and gradients are the same bits for any worker
    count, with or without a workspace.
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
    if workspace is not None:
        return workspace.loss(u, v, scales)
    with LossWorkspace(n) as own:
        return own.loss(u, v, scales)
