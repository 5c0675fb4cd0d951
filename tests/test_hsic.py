"""HSIC checks against a brute-force estimator and Monte-Carlo level/power."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist

from macrobottle import autodiff as ad
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


class TestMedianBandwidth:
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
        assert hsic.median_bandwidth(x, seed=3) == hsic.median_bandwidth(x, seed=3)


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
            hsic.hsic_loss(ad.Tensor(x), ad.Tensor(x ** 2), bandwidths=bw)

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
            rejections += hsic.hsic_statistic(x, y).rejected
        assert rejections / trials <= 0.10


class TestLoss:
    @pytest.mark.parametrize("n", [64, 2 * hsic._CHUNK + 37])
    def test_equals_statistic_on_same_bandwidths(self, n):
        # above _CHUNK the statistic sums blocks, the loss one dense Gram
        rng = np.random.default_rng(12)
        x = rng.normal(size=(n, 1))
        y = rng.normal(size=(n, 1))
        bw = (1.3, 0.7)
        loss = hsic.hsic_loss(ad.Tensor(x), ad.Tensor(y), bandwidths=bw)
        res = hsic.hsic_statistic(x, y, bandwidths=bw)
        assert abs(loss.item() - res.statistic) < 1e-12 * abs(res.statistic)

    def test_constant_column_contributes_zero(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(32, 1))
        y = np.full((32, 1), 2.0)
        loss = hsic.hsic_loss(ad.Tensor(x), ad.Tensor(y))
        assert abs(loss.item()) < 1e-12

    @pytest.mark.parametrize("with_grad", ["xy", "x", "y"])
    def test_gradient_matches_finite_differences(self, with_grad):
        # the node's backward branches on which inputs require a gradient
        rng = np.random.default_rng(14)
        store = ad.ParamStore()
        x = store.add("x", rng.normal(size=(16, 1)))
        y = store.add("y", rng.normal(size=(16, 1)))
        x.requires_grad = "x" in with_grad
        y.requires_grad = "y" in with_grad
        bw = (1.0, 1.2)

        def loss_value():
            return hsic.hsic_loss(x, y, bandwidths=bw).item()

        store.zero_grad()
        ad.backward(hsic.hsic_loss(x, y, bandwidths=bw))
        h = 1e-6
        for t in (x, y):
            if not t.requires_grad:
                assert not t.grad.any()
                continue
            fd = np.zeros_like(t.data)
            flat = t.data.reshape(-1)
            fdflat = fd.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_value()
                flat[i] = orig - h
                down = loss_value()
                flat[i] = orig
                fdflat[i] = (up - down) / (2 * h)
            denom = max(np.abs(fd).max(), 1e-12)
            assert np.abs(t.grad - fd).max() / denom < 1e-4

    def test_minibatch_size_guard(self):
        with pytest.raises(DataError):
            hsic.hsic_loss(ad.Tensor(np.zeros((4, 1))), ad.Tensor(np.zeros((4, 1))))
