"""Structural checks for the transform search and the decision rule.

Statistical behavior on the synthetic pairs (direction recovery, confounder
null) has no automated check yet; everything here is fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from macrobottle import anm
from macrobottle import autodiff as ad
from macrobottle.errors import DataError


@pytest.mark.parametrize("fields", [
    {"batch_size": 0}, {"batch_size": 4}, {"fit_points": 7}, {"eval_points": 5},
    {"epochs": -1}, {"alpha": 0.0}, {"alpha": 1.5}, {"hidden": -1}])
def test_config_rejects_invalid_fields(fields):
    with pytest.raises(ValueError):
        anm.AnmConfig(**fields)


def test_standardize_vector():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    s = anm.standardize_vector(v)
    assert abs(s.mean()) < 1e-15
    assert abs(s.std() - 1.0) < 1e-15
    with pytest.raises(DataError):
        anm.standardize_vector(np.ones(5))


class TestMonotonicity:
    def test_untrained_encoder_mean_nondecreasing_on_grid(self):
        cfg = anm.AnmConfig(hidden=16)
        for seed in range(5):
            net = anm.TransformNetPair(cfg, seed)
            grid = np.linspace(-4.0, 4.0, 1000)
            for side in ("p", "t"):
                out = net.transform_mean(grid, side)
                assert np.all(np.diff(out) >= 0.0), f"seed {seed} side {side}"

    def test_trained_encoder_stays_monotone(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 300)
        y = x + rng.uniform(-0.2, 0.2, 300)
        cfg = anm.AnmConfig(hidden=8, epochs=10, batch_size=300)
        net = anm.fit_transform(x, y, "x_to_y", cfg, seed=1)
        grid = np.linspace(-4.0, 4.0, 1000)
        for side in ("p", "t"):
            assert np.all(np.diff(net.transform_mean(grid, side)) >= 0.0)


class TestResiduals:
    def make_identity_net(self):
        # single linear layer with softplus-inverse weights set so the
        # composite map is the identity; cross-map a=1, b=0
        cfg = anm.AnmConfig(hidden=0)
        net = anm.TransformNetPair(cfg, seed=0)
        for side in ("p", "t"):
            net.store[f"{side}.mono.w0"].data[...] = ad.softplus_inv(1.0)
            net.store[f"{side}.mono.b0"].data[...] = 0.0
        net.store["cross.a"].data[...] = 1.0
        net.store["cross.b"].data[...] = 0.0
        return net

    def test_identity_nets_zero_residual(self):
        net = self.make_identity_net()
        v = np.random.default_rng(1).normal(size=200)
        v = anm.standardize_vector(v)
        xp, yp, res = anm.residuals(net, v, v.copy(), "x_to_y")
        assert np.abs(xp - v).max() < 1e-12
        assert np.abs(res).max() < 1e-12

    def test_residuals_deterministic(self):
        cfg = anm.AnmConfig(hidden=8)
        net = anm.TransformNetPair(cfg, seed=3)
        rng = np.random.default_rng(2)
        x = rng.normal(size=100)
        y = rng.normal(size=100)
        r1 = anm.residuals(net, x, y, "x_to_y")
        r2 = anm.residuals(net, x, y, "x_to_y")
        for a, b in zip(r1, r2):
            assert np.array_equal(a, b)

    def test_trained_residual_mean_near_zero(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 600)
        y = x + rng.uniform(-0.2, 0.2, 600)
        cfg = anm.AnmConfig(hidden=8, epochs=60, batch_size=600, learning_rate=1e-2)
        net = anm.fit_transform(x, y, "x_to_y", cfg, seed=4)
        _, _, res = anm.residuals(net, x, y, "x_to_y")
        assert abs(res.mean()) < 0.05


class TestOlsResiduals:
    def test_exact_line(self):
        x = np.linspace(-1, 1, 50)
        y = 2.0 * x + 1.0
        slope, intercept = anm._ols_coeffs(x, y)
        assert abs(slope - 2.0) < 1e-12
        assert abs(intercept - 1.0) < 1e-12

    def test_residual_orthogonal_to_predictor(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=500)
        y = 0.7 * x + rng.normal(size=500)
        slope, intercept = anm._ols_coeffs(x, y)
        res = y - (slope * x + intercept)
        assert abs(np.corrcoef(x, res)[0, 1]) < 1e-10


class TestDecisionRule:
    def S(self, stat, thr):
        return anm.DirectionScores(stat, thr)

    def test_directed_forward(self):
        v = anm._decide(self.S(0.1, 0.5), self.S(1.0, 0.5), 3.0)
        assert v == anm.X_CAUSES_Y

    def test_directed_reverse(self):
        v = anm._decide(self.S(1.0, 0.5), self.S(0.1, 0.5), 3.0)
        assert v == anm.Y_CAUSES_X

    def test_no_direction_when_both_rejected(self):
        v = anm._decide(self.S(1.0, 0.5), self.S(1.2, 0.5), 3.0)
        assert v == anm.NO_DIRECTION

    def test_inconclusive_when_ratio_too_small(self):
        v = anm._decide(self.S(0.4, 0.5), self.S(0.9, 0.5), 3.0)
        assert v == anm.INCONCLUSIVE

    def test_inconclusive_when_both_accepted(self):
        v = anm._decide(self.S(0.1, 0.5), self.S(0.2, 0.5), 3.0)
        assert v == anm.INCONCLUSIVE


class TestVerdictPlumbing:
    def test_smoke_and_artifacts(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, 400)
        y = x + rng.uniform(-0.2, 0.2, 400)
        cfg = anm.AnmConfig(hidden=4, epochs=8, batch_size=200, seed=0,
                            fit_points=200, eval_points=200)
        v = anm.direction_verdict(x, y, cfg, pair_index=3, keep_artifacts=True)
        assert v.pair_index == 3
        assert v.decision in (anm.X_CAUSES_Y, anm.Y_CAUSES_X,
                              anm.NO_DIRECTION, anm.INCONCLUSIVE)
        assert set(v.artifacts) == {"fwd_raw", "rev_raw",
                                    "fwd_transformed", "rev_transformed"}
        doc = v.to_dict()
        assert doc["decision"] == v.decision
        assert doc["n"] == v.n

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            anm.direction_verdict(np.arange(30, dtype=float),
                                  np.arange(31, dtype=float),
                                  anm.AnmConfig(epochs=1))

    def test_fit_eval_subsampling(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=3000)
        y = x + rng.normal(size=3000)
        cfg = anm.AnmConfig(hidden=4, epochs=2, batch_size=256,
                            fit_points=500, eval_points=400)
        v = anm.direction_verdict(x, y, cfg)
        assert v.n == 400
