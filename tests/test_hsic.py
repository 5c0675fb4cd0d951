"""HSIC checks against a brute-force estimator and Monte-Carlo level/power."""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist
from scipy.stats import gamma as gamma_dist

from macrobottle import anm, datagen, hsic
from macrobottle.errors import DataError, DegenerateDataError


def brute_force_statistic(x, y, bw_x, bw_y):
    """n * HSIC_b from the textbook double-sum expansion, entry by entry."""
    n = len(x)
    k = np.empty((n, n))
    l = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            k[i, j] = np.exp(-((x[i] - x[j]) ** 2) / (2 * bw_x ** 2))
            l[i, j] = np.exp(-((y[i] - y[j]) ** 2) / (2 * bw_y ** 2))
    term1 = sum(k[i, j] * l[i, j] for i in range(n) for j in range(n)) / n**2
    term2 = k.sum() * l.sum() / n**4
    term3 = sum(k[i, :].sum() * l[i, :].sum() for i in range(n)) * 2 / n**3
    return n * (term1 + term2 - term3)


def dense_reference(x, y, bw_x, bw_y, alpha=hsic.DEFAULT_ALPHA):
    """(n * HSIC_b, gamma threshold) from full n x n Gram matrices."""
    n = len(x)
    k = np.exp(-((x[:, None] - x[None, :]) ** 2) / (2 * bw_x ** 2))
    l = np.exp(-((y[:, None] - y[None, :]) ** 2) / (2 * bw_y ** 2))
    h = np.eye(n) - 1.0 / n
    kc, lc = h @ k @ h, h @ l @ h
    statistic = np.trace(kc @ l) / n
    prod = (kc * lc / 6.0) ** 2
    var = (prod.sum() - np.trace(prod)) / (n * (n - 1))
    var *= 72.0 * (n - 4) * (n - 5) / (n * (n - 1) * (n - 2) * (n - 3))
    mu_x = (k.sum() - n) / (n * (n - 1))
    mu_y = (l.sum() - n) / (n * (n - 1))
    mean = (1.0 + mu_x * mu_y - mu_x - mu_y) / n
    threshold = gamma_dist.ppf(1.0 - alpha, a=mean * mean / var, scale=var * n / mean)
    return statistic, threshold


def pdist_median(x):
    """The median heuristic as np.median over scipy's list of all pairwise
    distances."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.median(pdist(np.asarray(x, dtype=np.float64)[:, None], "cityblock")))


def assert_bandwidth_is_pdist_median(x):
    expected = pdist_median(x)
    if expected == 0.0:
        with pytest.raises(DegenerateDataError):
            hsic.median_bandwidth(x)
    else:
        assert hsic.median_bandwidth(x).hex() == expected.hex()


SAMPLES = {
    "normal": lambda rng, n: rng.normal(size=n),
    "ties": lambda rng, n: np.round(rng.normal(size=n), 1),
    "three_values": lambda rng, n: rng.integers(0, 3, size=n).astype(np.float64),
    "near_constant": lambda rng, n: 1.0 + 1e-12 * rng.normal(size=n),
    "cubed_uniform": lambda rng, n: rng.uniform(-1.0, 1.0, size=n) ** 3,
    "wide_range": lambda rng, n: rng.choice([-1.0, 1.0], size=n) * np.exp(20.0 * rng.normal(size=n)),
}


def serial_loss_reference(x, y, bw):
    """(value, grad_x, grad_y) of n * HSIC_b and its gradients from dense
    n x n matrices, and the value's conditioning: sum(Kc o Lc) / n,
    -(4/n) sum_j m_ij (w_i - w_j) times the scale, with m = K o Lc for x and
    m = L o Kc for y, and sum|Kc o Lc| / n."""
    n = x.shape[0]
    scales = [np.sqrt(0.5) / b for b in bw]
    u, v = x[:, 0] * scales[0], y[:, 0] * scales[1]

    def centred(w):
        d = w[:, None] - w[None, :]
        k = np.exp(-np.square(d))
        offset = k.mean(axis=1) - k.mean() / 2
        return d, k, k - offset[:, None] - offset[None, :]

    (d_x, k, kc), (d_y, l, lc) = centred(u), centred(v)
    grads = [(-4.0 * scale / n) * (m * d).sum(axis=1)[:, None]
             for m, d, scale in ((k * lc, d_x, scales[0]), (l * kc, d_y, scales[1]))]
    prod = kc * lc
    return (float(prod.sum() / n), grads[0], grads[1]), float(np.abs(prod).sum() / n)


# The strip sweep adds in another order than the dense reference. The value
# does not move with the rounding of the centring offsets; the gradients do.
# Over 1000 draws of three-valued or e^(20z)-spread samples at n = 1200-1600
# the gradients read at most 5.5e-13 of their largest entry (p99 3.1e-13).
# The value's error follows its conditioning sum|Kc o Lc| / n, as the
# statistic's does, not the value: a three-valued draw whose value is 2.3e4
# times smaller than its conditioning reads 1.35e-12 of its value off, but
# 5.9e-17 of its conditioning. Over 3000 such draws the value read at most
# 3.1e-16 of its conditioning (p99 1.6e-16), and 3 of them more than 1e-12
# of the value (up to 4.2e-12).
LOSS_COND_RTOL = 1e-15
LOSS_GRAD_RTOL = 1e-12


def assert_loss_near_reference(got, x, y, bw):
    """The value within LOSS_COND_RTOL of its conditioning off
    serial_loss_reference's, and each gradient within LOSS_GRAD_RTOL of the
    reference's largest entry."""
    want, cond = serial_loss_reference(x, y, bw)
    assert abs(got[0] - want[0]) <= LOSS_COND_RTOL * cond
    for g, ref in zip(got[1:], want[1:]):
        assert g.shape == ref.shape
        assert np.abs(g - ref).max() <= LOSS_GRAD_RTOL * np.abs(ref).max()


def long_double_row_sums(w, block=256):
    """sum_j exp(-(w_i - w_j)^2) for every i, densely in np.longdouble,
    block rows at a time."""
    w = w.astype(np.longdouble)
    return np.concatenate([np.exp(-np.square(w[lo:lo + block, None] - w[None, :])).sum(axis=1)
                           for lo in range(0, w.size, block)])


def long_double_moments(u, v, block=256):
    """(statistic, variance, mu_x, mu_y) of scaled inputs and the
    conditioning of the first two, from the dense formulas in np.longdouble,
    block rows at a time: Kc and Lc from the Grams' row means,
    sum(Kc o Lc) / n with its conditioning sum|Kc o Lc| / n, and the
    variance from the sum of (Kc o Lc)^2 less its diagonal, whose
    conditioning is the same formula with the two added."""
    n = u.size
    sides = (u.astype(np.longdouble), v.astype(np.longdouble))

    def grams(lo):
        return [np.exp(-np.square(w[lo:lo + block, None] - w[None, :])) for w in sides]

    rows = np.stack([long_double_row_sums(w, block) for w in (u, v)])
    sums = rows.sum(axis=1)
    offsets = rows / n - sums[:, None] / (2 * n * n)
    stat = cond = var_sum = var_diag = np.longdouble(0)
    for lo in range(0, n, block):
        kc, lc = (g - offsets[s, lo:lo + block, None] - offsets[s, None, :]
                  for s, g in enumerate(grams(lo)))
        prod = kc * lc
        stat += prod.sum()
        cond += np.abs(prod).sum()
        np.square(prod, out=prod)
        var_sum += prod.sum()
        var_diag += np.trace(prod[:, lo:])  # row lo + k meets the diagonal at column lo + k
    mu_x, mu_y = (sums - n) / (n * (n - 1))
    m = np.longdouble(n)
    scale = 72 * (m - 4) * (m - 5) / (36 * m * (m - 1) * m * (m - 1) * (m - 2) * (m - 3))
    return (stat / n, (var_sum - var_diag) * scale, mu_x, mu_y), (cond / n, (var_sum + var_diag) * scale)


def safe_bandwidth(w):
    """The median bandwidth, 1 where it is 0, as hsic_loss picks it."""
    try:
        return hsic.median_bandwidth(w)
    except DegenerateDataError:
        return 1.0


def scaled_inputs(x, y):
    """x and y times sqrt(0.5) / safe_bandwidth, as hsic_statistic hands
    them to _blockwise_moments."""
    sx, sy = hsic._kernel_scales((safe_bandwidth(x), safe_bandwidth(y)))
    return x * sx, y * sy


def assert_outer_differences_are_subtract(a, b, rows, cols):
    """_outer_sum of the factors of a and -b over rows and cols gives the bits
    of np.subtract(a[:, rows, None], b[:, None, cols]), except that a zero
    difference is +0: (-0) - (+0) is -0 and the matmul's is +0, which
    squaring and the sums it feeds cannot tell apart."""
    out = np.empty((2, len(range(a.shape[1])[rows]), len(range(b.shape[1])[cols])))
    with np.errstate(over="ignore"):  # differences beyond the largest float are inf in both
        hsic._outer_sum(hsic._outer_sum_factors(a, -b), rows, cols, out)
        want = np.subtract(a[:, rows, None], b[:, None, cols]) + 0.0
    assert out.tobytes() == want.tobytes()


def traced_peak(call, *args):
    """The tracemalloc peak, in bytes, of call(*args)."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestMedianBandwidth:
    # n(n-1)/2 pairs is odd for n = 2, 999 and even for n = 4, 1000
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, hsic.MEDIAN_SUBSAMPLE), st.sampled_from(sorted(SAMPLES)),
           st.integers(0, 2**32 - 1))
    @example(2, "normal", 0)
    @example(4, "ties", 0)
    @example(999, "near_constant", 1)
    @example(1000, "three_values", 2)
    @example(1000, "wide_range", 3)
    def test_selection_equals_pdist_median(self, n, kind, seed):
        assert_bandwidth_is_pdist_median(SAMPLES[kind](np.random.default_rng(seed), n))

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.integers(2, 60),
                  elements=st.floats(allow_nan=False, allow_infinity=False, width=64)))
    def test_selection_equals_pdist_median_on_any_floats(self, x):
        # extreme magnitudes, subnormals, signed zeros and differences that overflow
        assert_bandwidth_is_pdist_median(x)

    @pytest.mark.parametrize("x", [[0.0, np.inf, 1.0, 2.0], [-np.inf, 1.0, 2.0, np.inf],
                                   [np.inf, np.inf, 1.0], [-np.inf, -np.inf, 3.0],
                                   [np.nan, 1.0, 2.0], [1.0, np.inf]])
    def test_non_finite_input_as_pdist_median(self, x):
        # one infinity per sign gives inf differences; two equal ones or a NaN give NaN
        assert hsic.median_bandwidth(np.array(x)).hex() == pdist_median(x).hex()


    def test_two_points(self):
        assert hsic.median_bandwidth(np.array([0.0, 1.0])) == 1.0

    def test_three_points(self):
        # pairwise distances 1, 1, 2 -> median 1
        assert hsic.median_bandwidth(np.array([0.0, 1.0, 2.0])) == 1.0

    def test_subsample_equals_full_when_small(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=1000)
        full = np.median(np.abs(x[:, None] - x[None, :])[np.triu_indices(1000, k=1)])
        assert hsic.median_bandwidth(x) == full

    def test_all_equal_degenerate(self):
        with pytest.raises(DegenerateDataError):
            hsic.median_bandwidth(np.full(10, 3.0))

    def test_one_value_is_data_error(self):
        with pytest.raises(DataError, match="at least 2 values"):
            hsic.median_bandwidth(np.array([3.0]))

    def test_subsample_deterministic_per_seed(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=5000)
        # the subsample is drawn with the fixed seed 0
        sub = x[np.random.default_rng(0).choice(x.size, hsic.MEDIAN_SUBSAMPLE, replace=False)]
        full = np.median(np.abs(sub[:, None] - sub[None, :])[np.triu_indices(sub.size, k=1)])
        assert hsic.median_bandwidth(x) == hsic.median_bandwidth(x) == full


class TestStatistic:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=50)
        y = 0.5 * x + rng.normal(size=50)
        res = hsic.hsic_statistic(x, y)
        expected = brute_force_statistic(x, y, *res.bandwidths)
        assert abs(res.statistic - expected) < 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=80)
        y = rng.normal(size=80)
        a = hsic.hsic_statistic(x, y)
        b = hsic.hsic_statistic(y, x)
        assert abs(a.statistic - b.statistic) < 1e-12

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=60)
        y = x ** 2 + rng.normal(size=60)
        perm = rng.permutation(60)
        a = hsic.hsic_statistic(x, y, bandwidths=(1.0, 1.0))
        b = hsic.hsic_statistic(x[perm], y[perm], bandwidths=(1.0, 1.0))
        assert abs(a.statistic - b.statistic) < 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            assert hsic.hsic_statistic(x, y).statistic >= 0.0

    @pytest.mark.parametrize("n", [200, 2 * hsic._CHUNK + 37])
    @pytest.mark.parametrize("dependent", [True, False])
    def test_blocks_match_dense_reference(self, n, dependent):
        # above _CHUNK this covers off-diagonal blocks and a ragged last block
        rng = np.random.default_rng(15)
        x = rng.normal(size=n)
        y = np.tanh(x) + 0.3 * rng.normal(size=n) if dependent else rng.normal(size=n)
        bw = (0.9, 1.1)
        res = hsic.hsic_statistic(x, y, bandwidths=bw)
        statistic, threshold = dense_reference(x, y, *bw)
        assert abs(res.statistic - statistic) <= 1e-9 * abs(statistic)
        assert abs(res.threshold - threshold) <= 1e-9 * abs(threshold)

    def test_worker_count_does_not_change_bits(self, monkeypatch):
        # 4 chunks, the last ragged, give 10 blocks: nine of 4 strips and
        # the last of one full strip and a ragged one, 38 strip tasks, so 64
        # CPUs make 38 workers
        n = 3 * hsic._CHUNK + hsic._STRIP + 37
        rng = np.random.default_rng(21)
        x = rng.normal(size=n)
        y = np.tanh(x) + 0.3 * rng.normal(size=n)
        pools = []

        class RecordingPool(hsic.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(hsic, "ThreadPoolExecutor", RecordingPool)
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # frequent switches expose any buffer two workers share
        try:
            for cpus in (1, 2, 3, 64):
                monkeypatch.setattr(hsic.os, "sched_getaffinity",
                                    lambda pid, c=cpus: set(range(c)), raising=False)
                threads = threading.active_count()
                res = hsic.hsic_statistic(x, y)
                assert threading.active_count() == threads  # no worker outlives the call
                results[cpus] = (res.statistic.hex(), res.threshold.hex())
        finally:
            sys.setswitchinterval(interval)
        assert pools == [1, 2, 3, 38]
        assert len(set(results.values())) == 1, results

    @settings(max_examples=40, deadline=None)
    @given(st.integers(6, 1600), st.sampled_from(sorted(SAMPLES)), st.sampled_from(sorted(SAMPLES)),
           st.integers(0, 2**32 - 1))
    @example(6, "normal", "ties", 0)
    @example(hsic._STRIP, "three_values", "normal", 1)
    @example(hsic._STRIP + 1, "near_constant", "ties", 2)
    @example(hsic._CHUNK + 1, "normal", "cubed_uniform", 3)
    @example(2 * hsic._CHUNK + hsic._STRIP + 37, "ties", "near_constant", 4)
    @example(1600, "wide_range", "normal", 5)
    @example(701, "three_values", "three_values", 0)  # centring offsets once differed by an ulp
    @example(217, "three_values", "three_values", 217)  # 1.55e-14 off whole-block sums
    @example(1000, "normal", "normal", 6)  # the row sums by the series
    def test_moments_match_long_double_reference(self, n, kind_x, kind_y, seed):
        # the strip sums, matmul differences and centring change only the
        # rounding: the statistic within 1e-15 and the variance within 2e-15
        # of their conditioning, and each mu within 2e-15 of the mean kernel
        # entry, the conditioning of sums - n
        rng = np.random.default_rng(seed)
        x, y = SAMPLES[kind_x](rng, n), SAMPLES[kind_y](rng, n)
        u, v = scaled_inputs(x, y)
        stat, var, *mus = hsic._blockwise_moments(u, v, n)
        (want_stat, want_var, *want_mus), (stat_cond, var_cond) = long_double_moments(u, v)
        assert abs(stat - want_stat) <= 1e-15 * stat_cond
        assert abs(var - want_var) <= 2e-15 * var_cond
        for mu, want in zip(mus, want_mus):
            assert abs(mu - want) <= 2e-15 * (abs(want) + 1.0 / (n - 1))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(SAMPLES)), st.integers(1, 2 * hsic._CHUNK), st.integers(0, 2**32 - 1),
           st.integers(0, 2 * hsic._CHUNK), st.integers(0, 2 * hsic._CHUNK))
    @example("three_values", hsic._CHUNK + 1, 0, hsic._STRIP, hsic._CHUNK)
    @example("wide_range", 2 * hsic._CHUNK, 1, hsic._CHUNK, 0)
    def test_matmul_differences_of_samples(self, kind, n, seed, r, j):
        # a strip's rows against a block's columns, as the sweep slices them
        rng = np.random.default_rng(seed)
        w = np.stack([SAMPLES[kind](rng, n), SAMPLES[kind](rng, n)])
        rows, cols = slice(min(r, n - 1), r + hsic._STRIP), slice(min(j, n - 1), j + hsic._CHUNK)
        assert_outer_differences_are_subtract(w, w, rows, cols)

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(st.just(2), st.integers(1, 40)), elements=FINITE),
           arrays(np.float64, st.tuples(st.just(2), st.integers(1, 40)), elements=FINITE))
    @example(np.array([[0.0, -0.0, 5e-324, -5e-324], [2.2e-308, -1e-310, 1.0, -0.0]]),
             np.array([[-0.0, 0.0, -5e-324, 5e-324], [2.2e-308, 1e-310, -0.0, 0.0]]))
    @example(np.array([[1e300, -1e300, 1.7976931348623157e308], [1e-300, 3.0, -1e300]]),
             np.array([[-1e300, 1e300, -1.7976931348623157e308], [1e-300, 3.0, 1e300]]))
    def test_matmul_differences_of_any_floats(self, a, b):
        # subnormals, signed zeros, extreme magnitudes and overflow to inf
        assert_outer_differences_are_subtract(a, b, slice(None), slice(None))

    def test_peak_memory(self, monkeypatch):
        # at n = 2000 a quarter of one n x n buffer: room for two workers'
        # strip buffers and the per-strip sums, none for an n x n Gram; at
        # n = 8000 the README's 5.9 MB: the series' chunks are freed before
        # the strip buffers are made, and the statistic makes no per-strip
        # sums
        monkeypatch.setattr(hsic.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for n, bound in ((2000, 0.25 * 8 * 2000 * 2000), (8000, 5.95e6)):
            rng = np.random.default_rng(25)
            x = rng.normal(size=n)
            assert traced_peak(hsic.hsic_statistic, x, np.tanh(x) + 0.3 * rng.normal(size=n)) < bound

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            hsic.hsic_statistic(np.zeros(10), np.zeros(11))

    def test_five_samples_is_data_error(self):
        x = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(DataError, match="at least 6 samples"):
            hsic.hsic_statistic(x, x ** 2)

    @pytest.mark.parametrize("bad", ["x", "y"])
    def test_non_finite_sample_is_data_error(self, bad):
        # a NaN statistic would compare below any threshold and read as independent
        x = np.linspace(-1.0, 1.0, 20)
        y = x ** 2
        (x if bad == "x" else y)[3] = np.nan
        with pytest.raises(DataError):
            hsic.hsic_statistic(x, y)

    @pytest.mark.parametrize("bw", [(0.0, 1.0), (-1.0, 1.0), (1.0, np.inf), (np.nan, 1.0)])
    def test_bad_bandwidth_is_data_error(self, bw):
        x = np.linspace(-1.0, 1.0, 20)[:, None]
        with pytest.raises(DataError):
            hsic.hsic_statistic(x, x ** 2, bandwidths=bw)
        with pytest.raises(DataError):
            hsic.hsic_loss(x, x ** 2, bandwidths=bw)

    @pytest.mark.parametrize("alpha", [1.5, -0.1, np.nan, 0.0, 1.0])
    def test_alpha_outside_the_unit_interval_is_data_error(self, alpha):
        # a NaN threshold reads as dependent, an infinite one (alpha 0) as
        # independent, and alpha 1 gives a threshold of 0
        x = np.linspace(-1.0, 1.0, 20)
        with pytest.raises(DataError):
            hsic.hsic_statistic(x, x ** 2, alpha=alpha)

    def test_independent_level(self):
        # independent pairs stay below threshold in >= 90% of trials
        rng = np.random.default_rng(9)
        below = 0
        trials = 100
        for _ in range(trials):
            x = rng.normal(size=500)
            y = rng.permutation(x.copy())
            res = hsic.hsic_statistic(x, y)
            below += res.statistic < res.threshold
        assert below >= 90

    def test_dependent_power(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            x = rng.normal(size=500)
            res = hsic.hsic_statistic(x, x)
            assert res.statistic > res.threshold

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.floats(0.0, 1e300) | st.floats(1e-3, 1e3),
           st.floats(5e-324, 1e300) | st.floats(1e-3, 1e3) | st.just(np.inf))
    @example(0.95, 1e-320, 2.0)  # a shape scipy rejects: nan
    @example(0.95, 0.0, 2.0)
    @example(1.0 - 2.0**-52, 0.0, 1.0)  # gammaincinv gives 0 here, scipy's ppf NaN
    def test_threshold_is_the_bits_of_gamma_ppf(self, q, shape, scale):
        with np.errstate(all="ignore"):  # 0 * inf
            expected = float(gamma_dist.ppf(q, a=shape, scale=scale))
            got = hsic.gamma_quantile(q, shape, scale)
        if np.isnan(expected):
            assert np.isnan(got)
        else:
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_type_one_error_of_gamma_threshold(self):
        rng = np.random.default_rng(11)
        rejections = 0
        trials = 200
        for _ in range(trials):
            x = rng.normal(size=200)
            y = rng.normal(size=200)
            res = hsic.hsic_statistic(x, y)
            rejections += res.statistic >= res.threshold
        assert rejections / trials <= 0.10


def generator_latents(n, seed):
    """The generator's standardized true x2 and y2 and the residual of y2's
    affine least-squares fit on x2, as direction_verdict's baseline takes
    it."""
    latents = datagen.gen_main_synthetic(n, seed).ground_truth.latents
    x, y = anm.standardize_vector(latents["x2"]), anm.standardize_vector(latents["y2"])
    slope, intercept = anm._ols_coeffs(x, y)
    return {"x2": x, "y2": y, "ols_residual": y - (slope * x + intercept)}


def scaled(x):
    """x times sqrt(0.5) / its safe_bandwidth, as _sweep receives it."""
    return scaled_inputs(x, x)[0]


ROW_SUM_INPUTS = {
    **{name: lambda name=name: scaled(generator_latents(8000, 1)[name])
       for name in ("x2", "y2", "ols_residual")},
    "normal_1000": lambda: scaled(SAMPLES["normal"](np.random.default_rng(8), 1000)),
    "wide_range_1000": lambda: scaled(SAMPLES["wide_range"](np.random.default_rng(9), 1000)),
    "normal_19": lambda: scaled(SAMPLES["normal"](np.random.default_rng(10), 19)),
    # 8 w is 2^52 + j, and the centre (2^52 + j + 0.5) / 8 rounds a whole
    # cell off for odd j
    "cells_past_2^52": lambda: 2.0**49 + np.arange(100) % 3 / 8,
}


class TestRowSums:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(8, 3000), st.sampled_from(sorted(SAMPLES)), st.integers(0, 2**32 - 1))
    @example(3000, "normal", 0)
    @example(3000, "cubed_uniform", 1)
    @example(3000, "near_constant", 2)
    @example(1000, "three_values", 3)
    @example(1000, "ties", 4)
    @example(3000, "wide_range", 5)
    @example(19, "normal", 6)
    def test_series_matches_long_double_row_sums(self, n, kind, seed):
        # the series' cut is below 2^-58 of a row sum, so what is left is the
        # float64 rounding of the moments and the Horner sum; where it
        # declines, more than n / _TERMS cells are occupied
        w = scaled(SAMPLES[kind](np.random.default_rng(seed), n))
        rows = hsic._gram_row_sums(w)
        if rows is None:
            assert np.unique(np.floor(w * hsic._CELLS_PER_UNIT)).size * hsic._TERMS > n
            return
        want = long_double_row_sums(w)
        assert np.all(np.abs(rows - want) <= 2e-15 * want)

    @pytest.mark.parametrize("case, series", [
        ("x2", True), ("y2", True), ("ols_residual", True), ("normal_1000", True),
        ("wide_range_1000", False), ("normal_19", False), ("cells_past_2^52", False)])
    def test_series_or_strips(self, case, series):
        # the verdict's n = 8000 statistics, on the generator's latents and
        # the baseline's residual, and a transform fit's n = 1000 minibatch
        # take the series; the strips take a spread input, fewer than _TERMS
        # points and cells whose centres do not round to within half a cell
        assert (hsic._gram_row_sums(ROW_SUM_INPUTS[case]()) is not None) == series

    @pytest.mark.parametrize("kind, builds", [("normal", 1), ("wide_range", 2)])
    def test_sweep_builds_each_strip_once_with_the_series(self, monkeypatch, kind, builds):
        # n = 1000 has 12 strip tasks; a statistic's strip task makes its
        # differences once per build and its centring once
        outer_sum, calls = hsic._outer_sum, []

        def counting(*args):
            calls.append(args[1].start)
            return outer_sum(*args)

        monkeypatch.setattr(hsic, "_outer_sum", counting)
        x = SAMPLES[kind](np.random.default_rng(11), 1000)
        hsic.hsic_statistic(x, np.tanh(x))
        assert len(calls) == 12 * (builds + 1)


class TestLoss:
    @pytest.mark.parametrize("n", [64, 2 * hsic._CHUNK + 37])
    def test_equals_statistic_on_same_bandwidths(self, n):
        # above _CHUNK both add up off-diagonal blocks and a ragged last one
        rng = np.random.default_rng(12)
        x = rng.normal(size=(n, 1))
        y = rng.normal(size=(n, 1))
        bw = (1.3, 0.7)
        value, _, _ = hsic.hsic_loss(x, y, bandwidths=bw)
        res = hsic.hsic_statistic(x, y, bandwidths=bw)
        assert abs(value - res.statistic) < 1e-12 * abs(res.statistic)

    def test_constant_column_contributes_zero(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(32, 1))
        y = np.full((32, 1), 2.0)
        value, _, _ = hsic.hsic_loss(x, y)
        assert abs(value) < 1e-12

    @pytest.mark.parametrize("perturb", ["xy", "x", "y"])
    def test_gradient_matches_finite_differences(self, perturb):
        # both gradients come back from one call; x and y use different
        # bandwidths, so a swapped Gram or scale shows on one side. "x" and
        # "y" check one gradient entry by entry; "xy" moves both inputs at
        # once along a random direction and checks the directional derivative
        rng = np.random.default_rng(14)
        x = rng.normal(size=(16, 1))
        y = rng.normal(size=(16, 1))
        bw = (1.0, 1.2)
        _, grad_x, grad_y = hsic.hsic_loss(x, y, bandwidths=bw)
        assert grad_x.shape == grad_y.shape == (16, 1)
        h = 1e-6

        def central_difference(dx, dy):
            return (hsic.hsic_loss(x + h * dx, y + h * dy, bandwidths=bw)[0]
                    - hsic.hsic_loss(x - h * dx, y - h * dy, bandwidths=bw)[0]) / (2 * h)

        if perturb == "xy":
            dx = rng.normal(size=(16, 1))
            dy = rng.normal(size=(16, 1))
            fd = central_difference(dx, dy)
            analytic = float((grad_x * dx).sum() + (grad_y * dy).sum())
            assert abs(analytic - fd) / max(abs(fd), 1e-12) < 1e-6
            return
        grad = grad_x if perturb == "x" else grad_y
        fd = np.zeros((16, 1))
        for i in range(16):
            e = np.zeros((16, 1))
            e[i] = 1.0
            zero = np.zeros((16, 1))
            fd[i] = central_difference(e, zero) if perturb == "x" else central_difference(zero, e)
        assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(st.integers(8, 1600), st.sampled_from(sorted(SAMPLES)), st.sampled_from(sorted(SAMPLES)),
           st.integers(0, 2**32 - 1))
    @example(hsic._CHUNK + 1, "normal", "cubed_uniform", 3)
    @example(2 * hsic._CHUNK + hsic._STRIP + 37, "ties", "near_constant", 4)
    @example(1557, "three_values", "three_values", 1910605212)  # 1.35e-12 of its value off
    @example(1000, "normal", "normal", 7)  # the row sums by the series
    def test_matches_serial_reference(self, n, kind_x, kind_y, seed):
        # the examples end in a ragged last block and a ragged last strip
        rng = np.random.default_rng(seed)
        x, y = SAMPLES[kind_x](rng, n)[:, None], SAMPLES[kind_y](rng, n)[:, None]
        bw = (safe_bandwidth(x), safe_bandwidth(y))
        assert_loss_near_reference(hsic.hsic_loss(x, y), x, y, bw)

    # Kinds whose values sit within a few bandwidths of each other. A power
    # of two moves wide_range's smallest gradient entries (down to 5.6e-322)
    # below the normal range, where scaling them rounds; a general scale or
    # shift rounds near_constant's 1 + 1e-12 z at 1e-4 of its spread.
    MODERATE = ("normal", "ties", "three_values", "cubed_uniform")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(8, 1600), st.sampled_from(MODERATE + ("near_constant",)),
           st.sampled_from(MODERATE + ("near_constant",)), st.integers(0, 2**32 - 1),
           st.integers(-20, 20), st.integers(-20, 20))
    def test_power_of_two_scale_moves_no_bit(self, n, kind_x, kind_y, seed, k, j):
        # the median bandwidths scale by exactly 2^k and 2^j, so the swept
        # inputs keep their bits: so does the value, and the gradients scale
        # by exactly 2^-k and 2^-j. A transform fit can hand hsic_loss its
        # columns in any units and get the same loss.
        rng = np.random.default_rng(seed)
        x, y = SAMPLES[kind_x](rng, n)[:, None], SAMPLES[kind_y](rng, n)[:, None]
        # not the bandwidth-1 fallback, which no scale or shift follows
        assume(pdist_median(x[:, 0]) > 0 and pdist_median(y[:, 0]) > 0)
        value, grad_x, grad_y = hsic.hsic_loss(x, y)
        got = hsic.hsic_loss(x * 2.0**k, y * 2.0**j)
        assert got[0].hex() == value.hex()
        assert got[1].tobytes() == (grad_x * 2.0**-k).tobytes()
        assert got[2].tobytes() == (grad_y * 2.0**-j).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(8, 1600), st.sampled_from(MODERATE), st.sampled_from(MODERATE),
           st.integers(0, 2**32 - 1), st.tuples(st.floats(-20, 20), st.floats(-20, 20)),
           st.tuples(st.floats(-1, 1), st.floats(-1, 1)))
    def test_affine_map_keeps_value_and_gradients(self, n, kind_x, kind_y, seed, log2_scales,
                                                  shifts):
        # a positive scale and a shift of up to one bandwidth per side, which
        # the median bandwidth follows up to rounding: the value stays
        # within LOSS_COND_RTOL of its conditioning, and the gradients, times
        # their scale, within LOSS_GRAD_RTOL of their largest entry
        rng = np.random.default_rng(seed)
        x, y = SAMPLES[kind_x](rng, n)[:, None], SAMPLES[kind_y](rng, n)[:, None]
        # not the bandwidth-1 fallback, which no scale or shift follows
        assume(pdist_median(x[:, 0]) > 0 and pdist_median(y[:, 0]) > 0)
        bw = (hsic.median_bandwidth(x), hsic.median_bandwidth(y))
        scales = [2.0**e for e in log2_scales]
        want = hsic.hsic_loss(x, y)
        got = hsic.hsic_loss(*(scale * (w + shift * b)
                               for w, scale, shift, b in zip((x, y), scales, shifts, bw)))
        _, cond = serial_loss_reference(x, y, bw)
        assert abs(got[0] - want[0]) <= LOSS_COND_RTOL * cond
        for g, ref, scale in zip(got[1:], want[1:], scales):
            assert np.abs(g * scale - ref).max() <= LOSS_GRAD_RTOL * np.abs(ref).max()

    def test_worker_count_does_not_change_bits(self, monkeypatch):
        # 4 chunks, the last ragged, give 10 blocks: nine of 4 strips and
        # the last of one full strip and a ragged one, 38 strip tasks, so 64
        # CPUs make 38 workers
        n = 3 * hsic._CHUNK + hsic._STRIP + 37
        rng = np.random.default_rng(22)
        x = rng.normal(size=(n, 1))
        y = np.tanh(x) + 0.3 * rng.normal(size=(n, 1))
        bw = (hsic.median_bandwidth(x), hsic.median_bandwidth(y))
        pools = []

        class RecordingPool(hsic.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(hsic, "ThreadPoolExecutor", RecordingPool)
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # frequent switches expose any buffer two workers share
        try:
            for cpus in (1, 2, 3, 64):
                monkeypatch.setattr(hsic.os, "sched_getaffinity",
                                    lambda pid, c=cpus: set(range(c)), raising=False)
                threads = threading.active_count()
                value, grad_x, grad_y = hsic.hsic_loss(x, y)
                assert threading.active_count() == threads  # no worker outlives the call
                results[cpus] = (value.hex(), grad_x.tobytes(), grad_y.tobytes())
        finally:
            sys.setswitchinterval(interval)
        assert pools == [1, 2, 3, 38]
        assert len(set(results.values())) == 1
        assert_loss_near_reference((value, grad_x, grad_y), x, y, bw)

    def test_workspace_gives_the_same_bits(self):
        # the first rows of one x, y give the bits of the same rows copied,
        # and no call leaves anything behind that a later one reads
        rng = np.random.default_rng(23)
        x = rng.normal(size=(300, 1))
        y = np.tanh(x) + 0.3 * rng.normal(size=(300, 1))
        for m in (300, 137, 300, 8):
            value, grad_x, grad_y = hsic.hsic_loss(x[:m], y[:m])
            want = hsic.hsic_loss(x[:m].copy(), y[:m].copy())
            assert value.hex() == want[0].hex()
            assert grad_x.tobytes() == want[1].tobytes()
            assert grad_y.tobytes() == want[2].tobytes()

    def test_workspace_peak_memory(self, monkeypatch):
        # a quarter of one n x n buffer: room for two workers' strip buffers
        # and the per-strip sums, none for an n x n Gram
        n = 2000
        monkeypatch.setattr(hsic.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rng = np.random.default_rng(24)
        x = rng.normal(size=(n, 1))
        y = np.tanh(x) + 0.3 * rng.normal(size=(n, 1))
        assert traced_peak(hsic.hsic_loss, x, y) < 0.25 * 8 * n * n

    def test_two_workers_build_equal_numbers_of_strips(self, monkeypatch):
        # n = 1000 has 3 blocks but 12 strip tasks, 6 per worker; a worker
        # builds each of its strips in its own two buffers, so the strips
        # written into each buffer are that worker's
        monkeypatch.setattr(hsic.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        outer_sum, built = hsic._outer_sum, {}

        def recording(factors, rows, cols, out):
            built.setdefault(out.__array_interface__["data"][0], set()).add((rows.start, cols.start))
            return outer_sum(factors, rows, cols, out)

        monkeypatch.setattr(hsic, "_outer_sum", recording)
        rng = np.random.default_rng(26)
        x = rng.normal(size=(1000, 1))
        hsic.hsic_loss(x, np.tanh(x) + 0.3 * rng.normal(size=(1000, 1)))
        assert sorted(len(strips) for strips in built.values()) == [6, 6, 6, 6]
        assert len(set.union(*built.values())) == 12

    def test_minibatch_size_guard(self):
        with pytest.raises(DataError):
            hsic.hsic_loss(np.zeros((4, 1)), np.zeros((4, 1)))

    def test_nan_with_bandwidths_is_data_error(self):
        # given bandwidths skip the median heuristic, which would refuse it
        x = np.random.default_rng(25).normal(size=(50, 1))
        x[17] = np.nan
        with pytest.raises(DataError, match="finite samples"):
            hsic.hsic_loss(x, x, bandwidths=(1.0, 1.0))

    @pytest.mark.parametrize("shapes", [((10, 1), (9, 1)), ((10,), (10,)), ((10, 2), (10, 2))])
    def test_mismatched_shapes_are_data_errors(self, shapes):
        x, y = (np.zeros(shape) for shape in shapes)
        with pytest.raises(DataError, match="matching \\(n, 1\\) batches"):
            hsic.hsic_loss(x, y)
