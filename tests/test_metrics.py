"""Explained variance, per-neuron divergence and mask bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from macrobottle import metrics
from macrobottle.errors import DimensionError, NumericalError


class TestExplainedVariance:
    def test_perfect_prediction(self):
        t = np.random.default_rng(0).normal(size=(20, 3))
        assert metrics.explained_variance(t, t.copy()) == 1.0

    def test_column_mean_prediction_is_zero(self):
        t = np.random.default_rng(1).normal(size=(50, 4))
        pred = np.tile(t.mean(axis=0), (50, 1))
        assert abs(metrics.explained_variance(t, pred)) < 1e-12

    def test_worse_than_mean_is_negative(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=(100, 2))
        t -= t.mean(axis=0)
        ev = metrics.explained_variance(t, -t)
        assert abs(ev - (-3.0)) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(30, 2))
        p = rng.normal(size=(30, 2))
        base = metrics.explained_variance(t, p)
        shifted = metrics.explained_variance(t + 5.0, p + 5.0)
        assert abs(base - shifted) < 1e-10

    def test_zero_variance_rejected(self):
        with pytest.raises(NumericalError):
            metrics.explained_variance(np.ones((5, 2)), np.ones((5, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            metrics.explained_variance(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_one_dimensional_input(self):
        t = np.array([1.0, 2.0, 3.0])
        assert metrics.explained_variance(t, t) == 1.0


class TestPerNeuronKl:
    def test_prior_is_zero(self):
        kl = metrics.per_neuron_kl(np.zeros((10, 3)), np.zeros((10, 3)))
        assert np.array_equal(kl, np.zeros(3))

    def test_varying_mean_sigma_one(self):
        mu = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        kl = metrics.per_neuron_kl(mu, np.zeros_like(mu))
        assert abs(kl[0] - 0.5) < 1e-15

    def test_nonnegative_and_zero_only_at_prior(self):
        rng = np.random.default_rng(4)
        mu = rng.normal(size=(50, 4))
        lv = rng.normal(scale=0.3, size=(50, 4))
        kl = metrics.per_neuron_kl(mu, lv)
        assert np.all(kl > 0)


class TestInformativeMask:
    def test_flag_definition(self):
        mask = metrics.informative_mask(np.array([0.9, 0.001, 0.7, 0.002]), 0.01)
        assert mask.count == 2
        assert np.array_equal(mask.flags, [True, False, True, False])
        assert list(mask.indices) == [0, 2]

    def test_all_zero(self):
        assert metrics.informative_mask(np.zeros(4), 0.01).count == 0

    def test_count_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        kl = rng.uniform(0, 1, size=8)
        thresholds = np.linspace(0.01, 0.99, 20)
        counts = [metrics.informative_mask(kl, t).count for t in thresholds]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            metrics.informative_mask(np.zeros(2), 0.0)


class _AffineHalf:
    """Stub half with a fixed diagonal cross-map."""

    def __init__(self, a, b):
        self._a = np.asarray(a, dtype=np.float64)
        self._b = np.asarray(b, dtype=np.float64)

    def cross_predict_np(self, z):
        return self._a * z + self._b

    def cross_params(self):
        return self._a.copy(), self._b.copy()


class _StubModel:
    def __init__(self, a_x, b_x, a_y, b_y):
        self.net_x = _AffineHalf(a_x, b_x)
        self.net_y = _AffineHalf(a_y, b_y)


class TestPairTable:
    def test_empty_masks_give_empty_table(self):
        model = _StubModel([1, 1], [0, 0], [1, 1], [0, 0])
        mask = metrics.informative_mask(np.zeros(2), 0.01)
        enc = metrics.Encoding(np.zeros((5, 2)), np.zeros((5, 2)), mask, mask)
        table = metrics.pair_table(model, enc)
        assert table.pairs == [] and table.unpaired_x == [] and table.unpaired_y == []

    def test_partial_overlap(self):
        model = _StubModel([1, 1], [0, 0], [1, 1], [0, 0])
        mask_x = metrics.informative_mask(np.array([1.0, 0.0]), 0.01)
        mask_y = metrics.informative_mask(np.array([1.0, 1.0]), 0.01)
        rng = np.random.default_rng(6)
        mu = rng.normal(size=(20, 2))
        enc = metrics.Encoding(mu, mu, mask_x, mask_y)
        assert list(enc.paired) == [0]
        table = metrics.pair_table(model, enc)
        assert [r.index for r in table.pairs] == [0]
        assert table.unpaired_x == []
        assert table.unpaired_y == [1]

    def test_perfect_cross_prediction_scores_one(self):
        # y macrovariables equal x macrovariables; identity cross-map
        model = _StubModel([1, 1], [0, 0], [1, 1], [0, 0])
        mask = metrics.informative_mask(np.array([1.0, 1.0]), 0.01)
        rng = np.random.default_rng(7)
        mu = rng.normal(size=(30, 2))
        table = metrics.pair_table(model, metrics.Encoding(mu, mu, mask, mask))
        for row in table.pairs:
            assert abs(row.cross_ev_y_from_x - 1.0) < 1e-12
            assert abs(row.cross_ev_x_from_y - 1.0) < 1e-12
