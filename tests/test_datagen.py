"""Generator checks against the structural equations and their statistics."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import kstest

from macrobottle import datagen
from macrobottle.errors import DataError


def _halves(data, by_rows):
    """The 32 pixels of each half of every 8x8 sample, as two (n, 32) arrays:
    left/right halves, or top/bottom halves by rows."""
    img = data.reshape(-1, 8, 8)
    if by_rows:
        img = img.transpose(0, 2, 1)
    return img[:, :, :4].reshape(-1, 32), img[:, :, 4:].reshape(-1, 32)


class TestMainSynthetic:
    def test_shapes_and_split(self):
        pair = datagen.gen_main_synthetic(1000, seed=0)
        assert pair.x.shape == (1000, 64)
        assert pair.y.shape == (1000, 64)
        # gen's split column: 0 train, 1 val, 2 test
        labels = datagen.assign_splits(1000, 0)
        assert np.bincount(labels).tolist() == [800, 100, 100]
        assert np.sum(labels == datagen.TRAIN) == 800

    def test_half_average_recovers_latents_within_pixel_noise(self):
        pair = datagen.gen_main_synthetic(2000, seed=1)
        halves = [*_halves(pair.x, by_rows=False), *_halves(pair.y, by_rows=True)]
        gt = pair.ground_truth.latents
        # mean of 32 iid U(-0.2, 0.2) pixels has std ~= 0.0204
        for pixels, key in zip(halves, ("x1", "x2", "y1", "y2")):
            diff = pixels.mean(axis=1) - gt[key]
            assert np.abs(diff).max() < 0.12
            assert abs(diff.std() - 0.0204) < 0.004

    def test_every_pixel_within_image_noise_of_its_latent(self):
        pair = datagen.gen_main_synthetic(2000, seed=8)
        lat = pair.ground_truth.latents
        # X: left half x1, right half x2; Y: top half y1, bottom half y2
        for data, by_rows, keys in ((pair.x, False, ("x1", "x2")),
                                    (pair.y, True, ("y1", "y2"))):
            for pixels, key in zip(_halves(data, by_rows), keys):
                diff = np.abs(pixels - lat[key][:, None])
                assert diff.max() <= datagen.IMAGE_NOISE
                assert diff.max() > 0.99 * datagen.IMAGE_NOISE  # the noise is there

    def test_structural_equations_hold_exactly(self):
        pair = datagen.gen_main_synthetic(500, seed=2)
        lat = pair.ground_truth.latents
        noi = pair.ground_truth.noises
        assert np.array_equal(lat["x1"], lat["c1"] + noi["n_x1"])
        assert np.array_equal(lat["y1"], lat["c1"] ** 3 + noi["n_y1"])
        assert np.array_equal(lat["y2"], np.tanh(lat["x2"]) + noi["n_y2"])
        for draws in noi.values():
            assert np.abs(draws).max() <= datagen.EQUATION_NOISE

    @pytest.mark.parametrize("key", ["x1", "y1", "y2"])
    def test_equations_hold_detects_one_changed_bit(self, key):
        # one ulp of an effect always breaks its equation; of a cause or a
        # noise it can round away
        truth = datagen.gen_main_synthetic(200, seed=9).ground_truth
        columns = dict(zip(truth.column_names(), truth.as_matrix().T))
        assert datagen.equations_hold("main", columns)
        columns[key] = columns[key].copy()
        columns[key][17] = np.nextafter(columns[key][17], np.inf)
        assert not datagen.equations_hold("main", columns)

    def test_latent_correlations(self):
        pair = datagen.gen_main_synthetic(100_000, seed=3)
        lat = pair.ground_truth.latents
        assert np.corrcoef(lat["x1"], lat["y1"])[0, 1] > 0.8
        resid = lat["y2"] - np.tanh(lat["x2"])
        assert abs(np.corrcoef(lat["x2"], resid)[0, 1]) < 0.02

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
        assert np.array_equal(a.ground_truth.as_matrix(), b.ground_truth.as_matrix())


class TestAsymmetric:
    def test_square_relation_exact(self):
        pair = datagen.gen_asymmetric(300, seed=0)
        lat = pair.ground_truth.latents
        assert np.array_equal(lat["y1"], lat["x1"] ** 2)
        assert datagen.equations_hold("asymmetric", lat)
        lat["y1"][5] = np.nextafter(lat["y1"][5], np.inf)
        assert not datagen.equations_hold("asymmetric", lat)

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
        pair = datagen.gen_asymmetric(2000, seed=3)
        lat = pair.ground_truth.latents
        for data, key in ((pair.x, "x1"), (pair.y, "y1")):
            diff = np.abs(data - lat[key][:, None])
            assert diff.max() <= datagen.IMAGE_NOISE
            assert diff.max() > 0.99 * datagen.IMAGE_NOISE  # the noise is there


class TestSplits:
    def test_misaligned_pair_rejected(self):
        with pytest.raises(DataError):
            datagen.DatasetPair(np.zeros((3, 4)), np.zeros((2, 4)))
