"""Explained variance, per-neuron divergence, informative-neuron detection
and the pair-table rows of one CAE evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from macrobottle import autodiff as ad
from macrobottle import cae
from macrobottle.errors import DimensionError, NumericalError


class TestExplainedVariance:
    def test_perfect_prediction(self):
        t = np.random.default_rng(0).normal(size=(20, 3))
        assert cae.explained_variance(t, t.copy()) == 1.0

    def test_column_mean_prediction_is_zero(self):
        t = np.random.default_rng(1).normal(size=(50, 4))
        pred = np.tile(t.mean(axis=0), (50, 1))
        assert abs(cae.explained_variance(t, pred)) < 1e-12

    def test_worse_than_mean_is_negative(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=(100, 2))
        t -= t.mean(axis=0)
        ev = cae.explained_variance(t, -t)
        assert abs(ev - (-3.0)) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(30, 2))
        p = rng.normal(size=(30, 2))
        base = cae.explained_variance(t, p)
        shifted = cae.explained_variance(t + 5.0, p + 5.0)
        assert abs(base - shifted) < 1e-10

    def test_zero_variance_rejected(self):
        with pytest.raises(NumericalError):
            cae.explained_variance(np.ones((5, 2)), np.ones((5, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            cae.explained_variance(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_one_dimensional_input(self):
        t = np.array([1.0, 2.0, 3.0])
        assert cae.explained_variance(t, t) == 1.0


def per_neuron_kl(mu, logvar):
    """The divergence encode_block thresholds: gaussian_kl averaged over rows."""
    return ad.gaussian_kl(mu, logvar)[1].mean(axis=0)


class TestPerNeuronKl:
    def test_prior_is_zero(self):
        kl = per_neuron_kl(np.zeros((10, 3)), np.zeros((10, 3)))
        assert np.array_equal(kl, np.zeros(3))

    def test_varying_mean_sigma_one(self):
        mu = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        kl = per_neuron_kl(mu, np.zeros_like(mu))
        assert abs(kl[0] - 0.5) < 1e-15

    def test_nonnegative_and_zero_only_at_prior(self):
        rng = np.random.default_rng(4)
        mu = rng.normal(size=(50, 4))
        lv = rng.normal(scale=0.3, size=(50, 4))
        kl = per_neuron_kl(mu, lv)
        assert np.all(kl > 0)


def active_model(active_x, active_y, kl_threshold=0.05, scale=5.0):
    """A small CAE on 3 + 3 inputs whose bottleneck neuron i has a varying
    mean on a side when i is listed for that side; every other mean and every
    log-variance is exactly 0, the prior."""
    config = cae.CaeConfig(bottleneck_dim=2, encoder_hidden=(4,),
                           decoder_hidden_per_variable=(2,), kl_threshold=kl_threshold)
    model = cae.build_cae(3, 3, config)
    for half, active in ((model.net_x, active_x), (model.net_y, active_y)):
        keep = np.zeros(4)
        keep[list(active)] = scale
        half.param("enc.w1").data[...] *= keep
        half.param("enc.b1").data[...] = 0.0
    return model


def block(seed, rows=40):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, 3)), rng.normal(size=(rows, 3))


class TestInformativeMask:
    def test_flag_definition(self):
        model = active_model([0], [0, 1])
        enc = cae.encode_block(model, *block(0))
        for mask in (enc.mask_x, enc.mask_y):
            assert np.array_equal(mask.flags, mask.kl > model.config.kl_threshold)
            assert list(mask.indices) == list(np.flatnonzero(mask.flags))
            assert mask.count == len(mask.indices)
        assert list(enc.mask_x.indices) == [0] and list(enc.mask_y.indices) == [0, 1]

    def test_all_zero(self):
        enc = cae.encode_block(active_model([], []), *block(1))
        assert np.array_equal(enc.mask_x.kl, [0.0, 0.0])
        assert enc.mask_x.count == 0 and enc.mask_y.count == 0

    def test_count_monotone_in_threshold(self):
        x, y = block(5)
        counts = []
        for thr in np.linspace(0.01, 3.0, 20):
            model = active_model([0, 1], [0, 1], kl_threshold=thr, scale=3.0)
            counts.append(cae.encode_block(model, x, y).mask_x.count)
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] == 2

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            cae.CaeConfig(kl_threshold=0.0)


class TestPairTable:
    def test_empty_masks_give_empty_table(self):
        _, rows, enc = cae.evaluate_model(active_model([], []), *block(2))
        assert rows == [] and len(enc.paired) == 0

    def test_partial_overlap(self):
        _, rows, enc = cae.evaluate_model(active_model([0], [0, 1]), *block(6))
        assert list(enc.paired) == [0]
        assert [r["index"] for r in rows] == [0, 1]
        assert list(rows[0]) == ["index", "a_x_to_y", "b_x_to_y", "a_y_to_x", "b_y_to_x",
                                 "cross_ev_y_from_x", "cross_ev_x_from_y"]
        assert rows[1] == {"index": 1, "unpaired_side": "y"}

    def test_perfect_cross_prediction_scores_one(self):
        # both halves encode alike and see the same rows; identity cross-map
        model = active_model([0, 1], [0, 1])
        for name in ("enc.w0", "enc.b0", "enc.w1", "enc.b1"):
            model.net_y.param(name).data[...] = model.net_x.param(name).data
        for half in (model.net_x, model.net_y):
            half.param("cross.a").data[...] = 1.0
            half.param("cross.b").data[...] = 0.0
        x, _ = block(7)
        _, rows, _ = cae.evaluate_model(model, x, x)
        assert [r["index"] for r in rows] == [0, 1]
        for row in rows:
            assert row["a_x_to_y"] == row["a_y_to_x"] == 1.0
            assert abs(row["cross_ev_y_from_x"] - 1.0) < 1e-12
            assert abs(row["cross_ev_x_from_y"] - 1.0) < 1e-12
