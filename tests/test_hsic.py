"""HSIC checks against a brute-force estimator and Monte-Carlo level/power."""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist
from scipy.stats import gamma as gamma_dist

from macrobottle import hsic
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
    """(value hex, grad_x bytes, grad_y bytes) of hsic_loss's arithmetic done
    serially with fresh temporaries."""
    n = x.shape[0]
    scales = [np.sqrt(0.5) / b for b in bw]
    u, v = x[:, 0] * scales[0], y[:, 0] * scales[1]

    def centred(w):
        k = np.exp(-np.square(w[:, None] - w[None, :]))
        offset = k.mean(axis=1) - k.mean() / 2
        return k, k - offset[:, None] - offset[None, :]

    (k, kc), (l, lc) = centred(u), centred(v)
    m_x, m_y = k * lc, l * kc
    grads = [(-4.0 * scale / n) * (w * m.sum(axis=1) - m @ w)[:, None]
             for w, m, scale in ((u, m_x, scales[0]), (v, m_y, scales[1]))]
    return float(m_y.sum() / n).hex(), grads[0].tobytes(), grads[1].tobytes()


def whole_block_moments(u, v, n, chunk=512):
    """_blockwise_moments' two passes with whole-block sums, run serially:
    each chunk x chunk Gram block built whole in a view of one block-sized
    buffer per side, its sums taken over the whole block and added up in
    block order. The strip sweep differs from it only in the order of its
    additions."""
    bufs = (np.empty((chunk, chunk)), np.empty((chunk, chunk)))
    blocks = [(i, j) for i in range(0, n, chunk) for j in range(i, n, chunk)]

    def grams(i, j):
        for w, buf in zip((u, v), bufs):
            a, b = w[i:i + chunk], w[j:j + chunk]
            out = buf[:a.size, :b.size]
            np.subtract(a[:, None], b[None, :], out=out)
            yield np.exp(np.negative(np.square(out, out=out), out=out), out=out)

    rows = np.zeros((2, n))
    for i, j in blocks:
        for side, b in enumerate(grams(i, j)):
            rows[side, i:i + chunk] += b.sum(axis=1)
            if j > i:
                rows[side, j:j + chunk] += b.sum(axis=0)
    sums = rows.sum(axis=1)
    offsets = rows / n - sums[:, None] / (2 * n * n)
    stat = var_sum = var_diag = 0.0
    for i, j in blocks:
        kc, lc = grams(i, j)
        for side, b in ((0, kc), (1, lc)):
            b -= offsets[side, i:i + chunk, None]
            b -= offsets[side, None, j:j + chunk]
        prod = np.multiply(kc, lc, out=kc)
        weight = 1.0 if j == i else 2.0
        stat += weight * float(prod.sum())
        np.square(prod, out=prod)
        var_sum += weight * float(prod.sum())
        var_diag += float(np.trace(prod)) if j == i else 0.0
    mu_x, mu_y = (sums - n) / (n * (n - 1))
    var = (var_sum - var_diag) / (36.0 * n * (n - 1))
    var *= 72.0 * (n - 4) * (n - 5) / (n * (n - 1) * (n - 2) * (n - 3))
    return stat / n, var, mu_x, mu_y


def scaled_inputs(x, y):
    """x and y times sqrt(0.5) / median bandwidth (1 where that is 0), as
    hsic_statistic hands them to _blockwise_moments."""
    def bandwidth(w):
        try:
            return hsic.median_bandwidth(w)
        except DegenerateDataError:
            return 1.0
    sx, sy = hsic._kernel_scales((bandwidth(x), bandwidth(y)))
    return x * sx, y * sy


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
        # 4 chunks, the last ragged, give 10 blocks: 64 CPUs still make 10
        # workers; the last chunk's rows are one full strip and a ragged one
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
        assert pools == [1, 2, 3, 10]
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
    def test_strips_match_whole_blocks(self, n, kind_x, kind_y, seed):
        # strips change only the order in which block sums are added
        rng = np.random.default_rng(seed)
        x, y = SAMPLES[kind_x](rng, n), SAMPLES[kind_y](rng, n)
        u, v = scaled_inputs(x, y)
        got = hsic._blockwise_moments(u, v, n)
        for value, expected in zip(got, whole_block_moments(u, v, n)):
            assert abs(value - expected) <= 1e-14 * abs(expected)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            hsic.hsic_statistic(np.zeros(10), np.zeros(11))

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


class TestLoss:
    @pytest.mark.parametrize("n", [64, 2 * hsic._CHUNK + 37])
    def test_equals_statistic_on_same_bandwidths(self, n):
        # above _CHUNK the statistic sums blocks, the loss one dense Gram
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

    def test_worker_count_does_not_change_bits(self, monkeypatch):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(300, 1))
        y = np.tanh(x) + 0.3 * rng.normal(size=(300, 1))
        bw = (hsic.median_bandwidth(x), hsic.median_bandwidth(y))
        pools = []

        class RecordingPool(hsic.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(hsic, "ThreadPoolExecutor", RecordingPool)
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # frequent switches expose any buffer the sides share
        try:
            for cpus in ({0}, {0, 1}, set(range(64))):
                monkeypatch.setattr(hsic.os, "sched_getaffinity",
                                    lambda pid, c=cpus: c, raising=False)
                threads = threading.active_count()
                value, grad_x, grad_y = hsic.hsic_loss(x, y)
                assert threading.active_count() == threads  # no worker outlives the call
                results[len(cpus)] = (value.hex(), grad_x.tobytes(), grad_y.tobytes())
        finally:
            sys.setswitchinterval(interval)
        assert pools == [1, 2, 2]  # one worker per kernel side at most
        assert set(results.values()) == {serial_loss_reference(x, y, bw)}

    def test_workspace_gives_the_same_bits(self, monkeypatch):
        # a minibatch smaller than the workspace uses the front of its
        # buffers, whatever a larger one left behind; one pool serves all calls
        rng = np.random.default_rng(23)
        x = rng.normal(size=(300, 1))
        y = np.tanh(x) + 0.3 * rng.normal(size=(300, 1))
        pools = []

        class RecordingPool(hsic.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        threads = threading.active_count()
        expected = {m: hsic.hsic_loss(x[:m], y[:m]) for m in (300, 137, 8)}
        monkeypatch.setattr(hsic, "ThreadPoolExecutor", RecordingPool)
        with hsic.LossWorkspace(300) as workspace:
            for m in (300, 137, 300, 8):
                value, grad_x, grad_y = hsic.hsic_loss(x[:m], y[:m], workspace=workspace)
                want = expected[m]
                assert value.hex() == want[0].hex()
                assert grad_x.tobytes() == want[1].tobytes()
                assert grad_y.tobytes() == want[2].tobytes()
            with pytest.raises(ValueError):
                hsic.hsic_loss(np.vstack([x, x[:1]]), np.vstack([y, y[:1]]), workspace=workspace)
        assert len(pools) == 1
        assert threading.active_count() == threads

    def test_workspace_peak_memory(self):
        # room for K, L and the strip buffers (2.25 x 8n^2 on two workers); a
        # workspace of four n x n Gram buffers reads 4.1 x 8n^2
        n = 1000
        rng = np.random.default_rng(24)
        x = rng.normal(size=(n, 1))
        y = np.tanh(x) + 0.3 * rng.normal(size=(n, 1))
        tracemalloc.start()
        try:
            with hsic.LossWorkspace(n) as workspace:
                hsic.hsic_loss(x, y, workspace=workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * 8 * n * n

    def test_minibatch_size_guard(self):
        with pytest.raises(DataError):
            hsic.hsic_loss(np.zeros((4, 1)), np.zeros((4, 1)))
