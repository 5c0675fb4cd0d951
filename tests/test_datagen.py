"""Generator checks against the structural equations and their statistics."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import kstest

from macrobottle import datagen
from macrobottle.errors import DataError, DimensionError


class TestMainSynthetic:
    def test_shapes_and_split(self):
        pair = datagen.gen_main_synthetic(1000, seed=0)
        assert pair.x.shape == (1000, 64)
        assert pair.y.shape == (1000, 64)
        assert len(pair.rows(datagen.TRAIN)) == 800
        assert len(pair.rows(datagen.VAL)) == 100
        assert len(pair.rows(datagen.TEST)) == 100

    def test_half_average_recovers_latents_within_pixel_noise(self):
        pair = datagen.gen_main_synthetic(2000, seed=1)
        x_read, y_read = datagen.macro_readout(pair)
        gt = pair.ground_truth.latents
        # mean of 32 iid U(-0.2, 0.2) pixels has std ~= 0.0204
        for read, key in ((x_read[:, 0], "x1"), (x_read[:, 1], "x2"),
                          (y_read[:, 0], "y1"), (y_read[:, 1], "y2")):
            diff = read - gt[key]
            assert np.abs(diff).max() < 0.12
            assert abs(diff.std() - 0.0204) < 0.004

    def test_structural_equations_hold_exactly(self):
        pair = datagen.gen_main_synthetic(500, seed=2)
        lat = pair.ground_truth.latents
        noi = pair.ground_truth.noises
        assert np.array_equal(lat["x1"], lat["c1"] + noi["n_x1"])
        assert np.array_equal(lat["y1"], lat["c1"] ** 3 + noi["n_y1"])
        assert np.array_equal(lat["y2"], np.tanh(lat["x2"]) + noi["n_y2"])

    def test_latent_correlations(self):
        pair = datagen.gen_main_synthetic(100_000, seed=3)
        lat = pair.ground_truth.latents
        assert np.corrcoef(lat["x1"], lat["y1"])[0, 1] > 0.8
        resid = lat["y2"] - np.tanh(lat["x2"])
        assert abs(np.corrcoef(lat["x2"], resid)[0, 1]) < 0.02

    def test_zero_noise_variant(self):
        pair = datagen.gen_main_synthetic(100, seed=4, structural_noise=0.0,
                                          pixel_noise=0.0)
        lat = pair.ground_truth.latents
        assert np.array_equal(lat["y2"], np.tanh(lat["x2"]))
        x_read, y_read = datagen.macro_readout(pair)
        assert np.abs(x_read[:, 0] - lat["x1"]).max() < 1e-12
        assert np.abs(y_read[:, 1] - lat["y2"]).max() < 1e-12

    def test_latent_marginals_uniform(self):
        pair = datagen.gen_main_synthetic(100_000, seed=5)
        lat = pair.ground_truth.latents
        for key in ("c1", "x2"):
            stat = kstest(lat[key], "uniform", args=(-1.0, 2.0)).statistic
            assert stat < 0.02

    def test_noise_uncorrelated_with_latents(self):
        pair = datagen.gen_main_synthetic(100_000, seed=6)
        lat = pair.ground_truth.latents
        noi = pair.ground_truth.noises
        for nk in noi:
            for lk in ("c1", "x2"):
                assert abs(np.corrcoef(noi[nk], lat[lk])[0, 1]) < 0.02

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            datagen.gen_main_synthetic(0, seed=0)

    def test_deterministic_per_seed(self):
        a = datagen.gen_main_synthetic(50, seed=7)
        b = datagen.gen_main_synthetic(50, seed=7)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.split, b.split)


class TestAsymmetric:
    def test_square_relation_exact(self):
        pair = datagen.gen_asymmetric(300, seed=0)
        lat = pair.ground_truth.latents
        assert np.array_equal(lat["y1"], lat["x1"] ** 2)

    def test_sign_uniform_conditional_on_y(self):
        pair = datagen.gen_asymmetric(100_000, seed=1)
        lat = pair.ground_truth.latents
        bins = np.linspace(0.0, 1.0, 11)
        which = np.digitize(lat["y1"], bins)
        for b in range(1, 11):
            sel = which == b
            assert sel.sum() > 100
            pos_frac = (lat["x1"][sel] > 0).mean()
            assert abs(pos_frac - 0.5) < 0.05

    def test_best_constant_predictor_is_zero(self):
        pair = datagen.gen_asymmetric(10_000, seed=2)
        assert abs(pair.ground_truth.latents["x1"].mean()) < 0.02

    def test_micro_embedding_is_whole_image(self):
        pair = datagen.gen_asymmetric(200, seed=3, pixel_noise=0.0)
        lat = pair.ground_truth.latents
        assert np.abs(pair.x - lat["x1"][:, None]).max() == 0.0
        assert np.abs(pair.y - lat["y1"][:, None]).max() == 0.0


class TestMacroReadout:
    def test_constant_image(self):
        x = np.full((3, 64), 2.5)
        y = np.zeros((3, 64))
        pair = datagen.DatasetPair(x, y)
        x_read, y_read = datagen.macro_readout(pair)
        assert np.array_equal(x_read, np.full((3, 2), 2.5))
        assert np.array_equal(y_read, np.zeros((3, 2)))

    def test_half_structure_row_major(self):
        # left half = columns 0..3 of each 8-pixel row; top half = rows 0..3
        img = np.zeros((1, 8, 8))
        img[0, :, :4] = 1.0  # left
        pair = datagen.DatasetPair(img.reshape(1, 64), img.reshape(1, 64))
        x_read, y_read = datagen.macro_readout(pair)
        assert x_read[0, 0] == 1.0 and x_read[0, 1] == 0.0
        assert y_read[0, 0] == 0.5 and y_read[0, 1] == 0.5

    def test_wrong_dimensionality(self):
        pair = datagen.DatasetPair(np.zeros((2, 10)), np.zeros((2, 64)))
        with pytest.raises(DimensionError):
            datagen.macro_readout(pair)


class TestSplits:
    def test_pure_function_of_inputs(self):
        a = datagen.assign_splits(1000, 11)
        b = datagen.assign_splits(1000, 11)
        assert np.array_equal(a, b)
        c = datagen.assign_splits(1000, 12)
        assert not np.array_equal(a, c)

    def test_misaligned_pair_rejected(self):
        with pytest.raises(DataError):
            datagen.DatasetPair(np.zeros((3, 4)), np.zeros((2, 4)))
