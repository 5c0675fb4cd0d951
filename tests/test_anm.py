"""Structural checks for the transform search and the decision rule.

Statistical behavior on the synthetic pairs (direction recovery, confounder
null) has no automated check yet; everything here is fast.
"""

from __future__ import annotations

import threading
import warnings

import numpy as np
import pytest

from macrobottle import anm, hsic
from macrobottle import autodiff as ad
from macrobottle.errors import DataError, DegenerateDataError, NumericalError

SCATTER_TESTS = ("fwd_raw", "rev_raw", "fwd_transformed", "rev_transformed")
SCATTER_COLUMNS = ("value", "prediction", "counterpart", "residual")


@pytest.mark.parametrize("fields", [
    {"batch_size": 0}, {"batch_size": 4}, {"fit_points": 7}, {"eval_points": 5},
    {"epochs": -1}, {"alpha": 0.0}, {"alpha": 1.5}, {"hidden": -1}, {"hidden": 2.5},
    {"epochs": True}, {"seed": -1}, {"learning_rate": 0.0}, {"disparity_min": -1.0},
    {"disparity_min": 0.0}, {"learning_rate": True}, {"learning_rate": float("inf")},
    {"disparity_min": float("inf")}, {"alpha": True}])
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
                out = net.transform(grid[:, None], side)[-1]
                assert out.shape == (1000, 1)
                assert np.all(np.diff(out[:, 0]) >= 0.0), f"seed {seed} side {side}"

    def test_trained_encoder_stays_monotone(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 300)
        y = x + rng.uniform(-0.2, 0.2, 300)
        cfg = anm.AnmConfig(hidden=8, epochs=10, batch_size=300)
        net = anm.fit_transform(x, y, cfg, seed=1)
        grid = np.linspace(-4.0, 4.0, 1000)
        for side in ("p", "t"):
            assert np.all(np.diff(net.transform(grid[:, None], side)[-1], axis=0) >= 0.0)


def frozen_objective(net, bp, bt, frozen=None):
    """The transform objective recomputed step by step, with its dependence
    term from hsic_statistic on p' and the residual as they are. The
    quantities the loss treats as constants (var_t, bandwidths) are taken
    from `frozen` when given; returns (value, those quantities)."""
    p, t = (ad.mlp_forward(net.layers[s], v)[-1] for s, v in (("p", bp), ("t", bt)))
    a = net.store["cross.a"].data[0, 0]
    b = net.store["cross.b"].data[0]
    res = t - (a * p + b)
    if frozen is None:
        frozen = (t.var(), (hsic.median_bandwidth(p), hsic.median_bandwidth(res)))
    var_t, bws = frozen
    value = ((a * p + b - t) ** 2).mean() / var_t
    value += hsic.hsic_statistic(p, res, bandwidths=bws).statistic
    return value, frozen


class TestTransformLoss:
    CONFIG = anm.AnmConfig(hidden=4)

    @staticmethod
    def setup_net():
        net = anm.TransformNetPair(TestTransformLoss.CONFIG, seed=5)
        rng = np.random.default_rng(41)
        bp = rng.normal(size=(24, 1))
        bt = np.tanh(bp) + 0.3 * rng.normal(size=(24, 1))
        return net, bp, bt

    def test_value_matches_recomputation(self):
        net, bp, bt = self.setup_net()
        loss = anm._transform_loss(net, bp, bt)
        value, _ = frozen_objective(net, bp, bt)
        assert abs(loss.item() - value) < 1e-10 * abs(value)

    @pytest.mark.parametrize("name",
                             anm.TransformNetPair(CONFIG, seed=5).store.names())
    def test_matches_finite_differences(self, name):
        net, bp, bt = self.setup_net()
        ad.backward(anm._transform_loss(net, bp, bt))
        _, frozen = frozen_objective(net, bp, bt)
        p = net.store[name]
        fd = np.zeros_like(p.data)
        h = 1e-6
        for i in np.ndindex(p.data.shape):
            orig = p.data[i]
            p.data[i] = orig + h
            up, _ = frozen_objective(net, bp, bt, frozen)
            p.data[i] = orig - h
            down, _ = frozen_objective(net, bp, bt, frozen)
            p.data[i] = orig
            fd[i] = (up - down) / (2 * h)
        assert np.abs(p.grad - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1e-3), name

    def test_backward_writes_over_a_nan_filled_buffer(self):
        # the node writes every gradient once, so nothing left in the buffer
        # from before (here NaN) reaches a gradient
        net, bp, bt = self.setup_net()
        for name in net.store.names():
            net.store[name].grad[...] = np.nan
        ad.backward(anm._transform_loss(net, bp, bt))
        for name in net.store.names():
            assert np.isfinite(net.store[name].grad).all(), name


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
        xp, yp, res = anm.residuals(net, v, v.copy())
        assert np.abs(xp - v).max() < 1e-12
        assert np.abs(res).max() < 1e-12

    def test_residuals_deterministic(self):
        cfg = anm.AnmConfig(hidden=8)
        net = anm.TransformNetPair(cfg, seed=3)
        rng = np.random.default_rng(2)
        x = rng.normal(size=100)
        y = rng.normal(size=100)
        r1 = anm.residuals(net, x, y)
        r2 = anm.residuals(net, x, y)
        for a, b in zip(r1, r2):
            assert np.array_equal(a, b)

    def test_rows_are_read_as_given(self):
        # a row's transforms and residual come from its own inputs, whatever
        # rows are passed with it: held-out points are read in the units
        # they are given in, not rescaled by their own batch
        net = anm.TransformNetPair(anm.AnmConfig(hidden=8), seed=3)
        rng = np.random.default_rng(4)
        p = 0.5 + 2.0 * rng.normal(size=300)
        t = np.tanh(p) + 0.3 * rng.normal(size=300)
        for k in (7, 150):
            for part, whole in zip(anm.residuals(net, p[:k], t[:k]), anm.residuals(net, p, t)):
                assert np.allclose(part, whole[:k], rtol=1e-14, atol=0.0)

    def test_length_mismatch_is_data_error(self):
        with pytest.raises(DataError, match="length mismatch: 50 vs 49"):
            anm.fit_transform(np.arange(50.0), np.arange(49.0), anm.AnmConfig(epochs=1))

    def test_trained_residual_mean_near_zero(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 600)
        y = x + rng.uniform(-0.2, 0.2, 600)
        cfg = anm.AnmConfig(hidden=8, epochs=60, batch_size=600, learning_rate=1e-2)
        net = anm.fit_transform(x, y, cfg, seed=4)
        _, _, res = anm.residuals(net, x, y)
        assert abs(res.mean()) < 0.05

    def test_minibatch_tail_under_eight_rows_is_skipped(self, monkeypatch):
        # 100 points in batches of 96 leave a tail of 4: one step per epoch
        x, y = np.random.default_rng(6).normal(size=(2, 100))
        backward, steps = ad.backward, []
        monkeypatch.setattr(ad, "backward", lambda loss: steps.append(backward(loss)))
        anm.fit_transform(x, y, anm.AnmConfig(hidden=4, epochs=3, batch_size=96))
        assert len(steps) == 3

    def test_non_finite_input_is_data_error(self):
        x, y = np.random.default_rng(6).normal(size=(2, 50))
        y[7] = np.nan
        with pytest.raises(DataError, match="transform inputs must be finite"):
            anm.fit_transform(x, y, anm.AnmConfig(hidden=4, epochs=1))

    def test_diverging_fit_raises_without_warnings(self):
        # after the first Adam step at this rate the transforms overflow; a
        # library caller gets the NumericalError that direction_verdict
        # reads as a failed fit, and no numpy overflow warning
        rng = np.random.default_rng(6)
        x = rng.normal(size=300)
        y = np.tanh(x) + 0.3 * rng.normal(size=300)
        cfg = anm.AnmConfig(learning_rate=1e300, epochs=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite transforms or residual"):
                anm.fit_transform(x, y, cfg, seed=1)

    def test_one_loss_workspace_per_fit(self, monkeypatch):
        # every step calls hsic.hsic_loss through the module, on this
        # thread, and no thread outlives the fit
        x, y = np.random.default_rng(6).normal(size=(2, 100))
        cfg = anm.AnmConfig(hidden=4, epochs=3, batch_size=40)  # minibatches 40, 40, 20
        loss, calls = hsic.hsic_loss, []

        def recording_loss(*args, **kwargs):
            calls.append(threading.get_ident())
            return loss(*args, **kwargs)

        monkeypatch.setattr(hsic, "hsic_loss", recording_loss)
        threads = threading.active_count()
        anm.fit_transform(x, y, cfg, seed=1)
        assert threading.active_count() == threads
        assert calls == [threading.get_ident()] * 9


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
        v = anm.direction_verdict(x, y, cfg, pair_index=3)
        assert v.pair_index == 3
        assert v.decision in (anm.X_CAUSES_Y, anm.Y_CAUSES_X,
                              anm.NO_DIRECTION, anm.INCONCLUSIVE)
        assert list(v.scatter) == [f"{test}_{col}" for test in SCATTER_TESTS
                                   for col in SCATTER_COLUMNS]
        assert all(col.shape == (v.n,) for col in v.scatter.values())
        doc = v.to_dict()
        assert doc["decision"] == v.decision
        assert doc["n"] == v.n
        assert "scatter" not in doc

    def test_failed_fit_keeps_the_other_direction(self, monkeypatch):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, 400)
        y = x + rng.uniform(-0.2, 0.2, 400)
        cfg = anm.AnmConfig(hidden=4, epochs=2, batch_size=200,
                            fit_points=200, eval_points=200)
        fit, calls = anm.fit_transform, []

        def fail_reverse(p, t, config, seed):
            calls.append(seed)
            if len(calls) == 2:  # the y_to_x fit
                raise NumericalError("diverged")
            return fit(p, t, config, seed)

        monkeypatch.setattr(anm, "fit_transform", fail_reverse)
        v = anm.direction_verdict(x, y, cfg)
        assert v.decision == anm.INCONCLUSIVE
        assert v.diagnostics == "y_to_x transform fit failed: diverged"
        assert np.isfinite([v.raw_fwd.statistic, v.raw_rev.statistic, v.fwd.statistic]).all()
        assert np.isnan([v.rev.statistic, v.rev.threshold, v.disparity]).all()
        assert list(v.scatter) == [f"{test}_{col}" for test in SCATTER_TESTS[:3]
                                   for col in SCATTER_COLUMNS]

    def test_constant_transform_is_a_failed_fit(self, monkeypatch):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, 100)
        y = x + rng.uniform(-0.2, 0.2, 100)
        monkeypatch.setattr(anm, "residuals",
                            lambda net, x, y: (np.ones(x.size),) * 2
                            + (np.zeros(x.size),))
        v = anm.direction_verdict(x, y, anm.AnmConfig(hidden=2, epochs=1, batch_size=50,
                                                      fit_points=50, eval_points=50))
        assert v.decision == anm.INCONCLUSIVE
        assert "x_to_y" in v.diagnostics and "y_to_x" in v.diagnostics
        assert list(v.scatter) == [f"{test}_{col}" for test in SCATTER_TESTS[:2]
                                   for col in SCATTER_COLUMNS]

    def test_degenerate_input_is_data_error(self):
        # mostly one value: the raw tests, outside the fit's guard, get a
        # zero-median bandwidth
        x = np.repeat([0.0, 1.0], [90, 10])
        with pytest.raises(DegenerateDataError):
            anm.direction_verdict(x, x[::-1].copy(), anm.AnmConfig(epochs=0))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            anm.direction_verdict(np.arange(30, dtype=float),
                                  np.arange(31, dtype=float),
                                  anm.AnmConfig(epochs=1))

    def test_too_few_samples(self):
        x, y = np.random.default_rng(7).normal(size=(2, 23))
        with pytest.raises(DataError, match="at least 24 samples"):
            anm.direction_verdict(x, y, anm.AnmConfig(epochs=1))

    def test_fit_eval_subsampling(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=3000)
        y = x + rng.normal(size=3000)
        cfg = anm.AnmConfig(hidden=4, epochs=2, batch_size=256,
                            fit_points=500, eval_points=400)
        v = anm.direction_verdict(x, y, cfg)
        assert v.n == 400
