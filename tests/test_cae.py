"""Structural and loss-formula checks for the coupled-bottleneck model.

Everything here runs in seconds; fixed-seed training trajectories are pinned
in test_golden.py. Training quality (informative counts, EV bands, direction
tests) has no automated check yet.
"""

from __future__ import annotations

import copy
import warnings

import numpy as np
import pytest

from macrobottle import autodiff as ad
from macrobottle import cae, dataio
from macrobottle.errors import DataError, DimensionError, NumericalError


def small_model(seed=0, dim_x=6, dim_y=5, bottleneck=3, **overrides):
    config = cae.CaeConfig(bottleneck_dim=bottleneck, encoder_hidden=(8,),
                           decoder_hidden_per_variable=(4,), seed=seed, **overrides)
    return cae.build_cae(dim_x, dim_y, config)


class TestEncode:
    def test_shape_contract(self):
        model = small_model()
        mu, lv = model.net_x.encode_np(np.zeros((3, 6)))
        assert mu.shape == (3, 3) and lv.shape == (3, 3)
        assert np.all(np.isfinite(mu)) and np.all(np.isfinite(lv))

    def test_duplicate_rows_duplicate_mu(self):
        model = small_model(seed=1)
        row = np.random.default_rng(2).normal(size=6)
        mu = model.net_x.encode_mean(np.stack([row, row]))
        assert np.array_equal(mu[0], mu[1])

    def test_shape_mismatch(self):
        model = small_model()
        with pytest.raises(DimensionError):
            model.net_x.encode_np(np.zeros((2, 7)))


class TestAdditiveDecoder:
    def test_zero_subnets_yield_bias(self):
        model = small_model(seed=3)
        half = model.net_x
        half.param("dec.w_out").data[...] = 0.0
        bias = np.arange(float(half.target_dim))
        half.param("dec.bias").data[...] = bias
        z = np.random.default_rng(4).normal(size=(5, 3))
        out = half.decode_np(z)
        assert np.array_equal(out, np.tile(bias, (5, 1)))

    def test_cross_neuron_independence_finite_differences(self):
        # mixed second difference over (z_i, z_j) vanishes for additive maps
        model = small_model(seed=7)
        half = model.net_x
        z = np.random.default_rng(8).normal(size=(1, 3))
        h = 1e-3
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                zi = z.copy(); zi[0, i] += h
                zj = z.copy(); zj[0, j] += h
                zij = z.copy(); zij[0, i] += h; zij[0, j] += h
                mixed = (half.decode_np(zij) - half.decode_np(zi)
                         - half.decode_np(zj) + half.decode_np(z))
                assert np.abs(mixed).max() < 1e-6

    def test_wrong_bottleneck_width(self):
        model = small_model()
        with pytest.raises(DimensionError):
            model.net_x.decode_np(np.zeros((2, 5)))


class TestCrossMap:
    def test_identity(self):
        model = small_model(seed=9)
        half = model.net_x
        half.param("cross.a").data[...] = 1.0
        half.param("cross.b").data[...] = 0.0
        z = np.random.default_rng(10).normal(size=(4, 3))
        assert np.array_equal(half.cross_predict_np(z), z)

    def test_closed_form(self):
        config = cae.CaeConfig(bottleneck_dim=2, encoder_hidden=(4,),
                               decoder_hidden_per_variable=(4,), seed=0)
        model = cae.build_cae(4, 4, config)
        half = model.net_x
        half.param("cross.a").data[...] = [2.0, 0.0]
        half.param("cross.b").data[...] = [0.0, 3.0]
        out = half.cross_predict_np(np.array([[1.0, 5.0]]))
        assert np.array_equal(out, [[2.0, 3.0]])

    def test_jacobian_exactly_diagonal(self):
        model = small_model(seed=11)
        half = model.net_y
        z = np.random.default_rng(12).normal(size=(1, 3))
        h = 1e-6
        for j in range(3):
            zp = z.copy(); zp[0, j] += h
            zm = z.copy(); zm[0, j] -= h
            dcol = (half.cross_predict_np(zp) - half.cross_predict_np(zm)) / (2 * h)
            off = np.delete(dcol[0], j)
            assert np.abs(off).max() == 0.0


def select(terms: ad.Tensor, name: str) -> ad.Tensor:
    """One term of the six-term node as a loss of its own."""
    weights = np.array([n == name for n in cae.TERM_NAMES], dtype=np.float64)
    return ad.Tensor(weights @ terms.data, (terms,),
                     lambda g: terms._backward_fn(g * weights))


class TestHalfLoss:
    def test_kl_zero_at_prior(self):
        _, kl = ad.gaussian_kl(np.zeros((10, 2)), np.zeros((10, 2)))
        assert np.array_equal(kl.mean(axis=0), [0.0, 0.0])

    def test_kl_unit_mean_single_neuron(self):
        _, kl = ad.gaussian_kl(np.ones((6, 1)), np.zeros((6, 1)))
        assert abs(kl.mean(axis=0)[0] - 0.5) < 1e-15

    def test_terms_match_naive_recomputation(self):
        model = small_model(seed=13)
        rng_data = np.random.default_rng(14)
        bx = rng_data.normal(size=(9, 6))
        by = rng_data.normal(size=(9, 5))
        node = cae.loss_terms(model, bx, by, np.random.default_rng(42))
        terms = dict(zip(cae.TERM_NAMES, node.data))
        recon = terms["recon_x"]
        kl = terms["kl_x"] * model.config.bottleneck_dim
        cross = terms["cross_x"]
        # straight-line recomputation with the same noise draw (x's comes first)
        mu, lv = model.net_x.encode_np(bx)
        eps = np.random.default_rng(42).standard_normal(mu.shape)
        z = mu + np.exp(0.5 * np.clip(lv, -20, 5)) * eps
        recon_naive = ((model.net_x.decode_np(z) - by) ** 2).mean()
        kl_naive = (0.5 * (mu ** 2 + np.exp(lv) - 1.0 - lv)).sum(axis=1).mean()
        a, b = model.net_x.param("cross.a").data, model.net_x.param("cross.b").data
        mu_other = model.net_y.encode_mean(by)
        cross_naive = ((a * z + b - mu_other) ** 2).mean()
        assert abs(recon - recon_naive) < 1e-10
        assert abs(kl - kl_naive) < 1e-10
        assert abs(cross - cross_naive) < 1e-10


class TestCombinedLoss:
    def test_beta_gamma_zero_reduces_to_recons(self):
        model = small_model(seed=15, beta=0.0, gamma=0.0)
        rng_data = np.random.default_rng(16)
        bx = rng_data.normal(size=(8, 6))
        by = rng_data.normal(size=(8, 5))
        terms = cae.loss_terms(model, bx, by, np.random.default_rng(1))
        total = cae.combine(terms, 0.0, 0.0)
        assert abs(total.item() - terms.data[0] - terms.data[3]) < 1e-12

    def test_swap_symmetry(self):
        model = small_model(seed=17, dim_x=6, dim_y=6)
        # make both halves identical, then swapping X and Y on identical
        # batches must give the identical loss
        for name in model.store.names():
            if name.startswith("x."):
                model.store["y." + name[2:]].data[...] = model.store[name].data
        b = np.random.default_rng(18).normal(size=(8, 6))

        def loss(m):
            terms = cae.loss_terms(m, b, b, np.random.default_rng(5))
            return cae.combine(terms, m.config.beta, m.config.gamma).item()

        swapped = cae.CaeModel(model.net_y, model.net_x, model.config, model.store)
        assert loss(model) == loss(swapped)

    def test_cross_half_gradient_flow(self):
        # only net_x's cross term active: net_y's encoder still receives
        # gradient through the non-detached target
        model = small_model(seed=19)
        rng_data = np.random.default_rng(20)
        bx = rng_data.normal(size=(8, 6))
        by = rng_data.normal(size=(8, 5))

        def masked_loss():
            return select(cae.loss_terms(model, bx, by, np.random.default_rng(3)), "cross_x")

        model.store.zero_grad()
        ad.backward(masked_loss())
        g = model.net_y.param("enc.w0").grad
        assert np.abs(g).max() > 0.0

        # finite-difference spot check on one entry of net_y's encoder
        w = model.net_y.param("enc.w0")
        h = 1e-6
        orig = w.data[0, 0]
        w.data[0, 0] = orig + h
        up = masked_loss().item()
        w.data[0, 0] = orig - h
        down = masked_loss().item()
        w.data[0, 0] = orig
        fd = (up - down) / (2 * h)
        assert abs(g[0, 0] - fd) / max(abs(fd), 1e-12) < 1e-4


class TestLossGradient:
    BETA, GAMMA = 0.3, 0.7

    @staticmethod
    def model():
        model = small_model(seed=36, beta=TestLossGradient.BETA, gamma=TestLossGradient.GAMMA)
        # x's first log-variance sits below the clamp on every row: no gradient
        model.net_x.param("enc.b1").data[3] = -40.0
        return model

    @pytest.mark.parametrize("name", small_model().store.names())
    def test_matches_finite_differences(self, name):
        model = self.model()
        rng_data = np.random.default_rng(37)
        bx = rng_data.normal(size=(9, 6))
        by = rng_data.normal(size=(9, 5))

        def loss():
            terms = cae.loss_terms(model, bx, by, np.random.default_rng(38))
            return cae.combine(terms, self.BETA, self.GAMMA)

        model.store.zero_grad()
        ad.backward(loss())
        p = model.store[name]
        fd = np.zeros_like(p.data)
        h = 1e-6
        for i in np.ndindex(p.data.shape):
            orig = p.data[i]
            p.data[i] = orig + h
            up = loss().item()
            p.data[i] = orig - h
            down = loss().item()
            p.data[i] = orig
            fd[i] = (up - down) / (2 * h)
        assert np.abs(p.grad - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1e-3), name
        if name == "x.enc.b1":
            assert p.grad[3] == 0.0  # the clamped log-variance
        if name.endswith("dec.w0"):
            mask = model.net_x.dec[0][2]
            assert not (p.grad * (1.0 - mask)).any()  # off-block weights stay put


class TestKlMonteCarlo:
    def test_closed_form_within_one_percent(self):
        rng = np.random.default_rng(27)
        mu = rng.uniform(-2.0, 2.0, size=(1, 3))
        lv = rng.uniform(-1.0, 1.0, size=(1, 3))
        closed = ad.gaussian_kl(mu, lv)[1].mean(axis=0)
        draws = 300_000
        sigma = np.exp(0.5 * lv)
        z = mu + sigma * rng.standard_normal((draws, 3))
        # E_q[log q(z) - log p(z)]
        logq = -0.5 * ((z - mu) ** 2 / sigma**2 + np.log(2 * np.pi) + lv)
        logp = -0.5 * (z ** 2 + np.log(2 * np.pi))
        mc = (logq - logp).mean(axis=0)
        assert np.all(np.abs(mc - closed) / np.abs(closed) < 0.01)


class TestCheckpointRoundTrip:
    def test_save_load_preserves_behavior(self, tmp_path):
        model = small_model(seed=28)
        x = np.random.default_rng(29).normal(size=(4, 6))
        mu_before = model.net_x.encode_mean(x)
        model.save(tmp_path / "ck")
        loaded = cae.CaeModel.load(tmp_path / "ck")
        assert loaded.config == model.config
        assert np.array_equal(loaded.net_x.encode_mean(x), mu_before)

    def test_column_stats_round_trip(self, tmp_path):
        model = small_model(seed=33)
        rng = np.random.default_rng(34)
        model.stats = dataio.ColumnStats(x_mean=rng.normal(size=6),
                                         x_std=rng.uniform(0.5, 2.0, size=6),
                                         y_mean=rng.normal(size=5),
                                         y_std=rng.uniform(0.5, 2.0, size=5))
        model.save(tmp_path / "ck")
        arrays, _ = ad.load_checkpoint(tmp_path / "ck")
        stats = cae.CaeModel.load(tmp_path / "ck").stats
        for name, saved in vars(model.stats).items():
            assert np.array_equal(arrays[f"norm.{name}"], saved)
            assert np.array_equal(getattr(stats, name), saved)

    def test_partial_column_stats_is_data_error(self, tmp_path):
        model = small_model(seed=35)
        arrays = {**model.store.arrays(), "norm.x_mean": np.zeros(6), "norm.x_std": np.ones(6)}
        ad.save_checkpoint(tmp_path / "ck", arrays,
                           {"kind": "cae", "config": model.config.to_dict(),
                            "input_dim_x": 6, "input_dim_y": 5})
        with pytest.raises(DataError, match="norm.y_mean"):
            cae.CaeModel.load(tmp_path / "ck")

    def test_config_json_round_trip(self):
        config = cae.CaeConfig(bottleneck_dim=5, beta=0.3, gamma=0.7, seed=9)
        again = cae.CaeConfig.from_dict(config.to_dict())
        assert again == config

    def test_checkpoint_names_are_one_flat_store(self, tmp_path):
        model = small_model(seed=32)
        model.save(tmp_path / "ck")
        arrays, _ = ad.load_checkpoint(tmp_path / "ck")
        assert sorted(arrays) == sorted(model.store.names())
        assert {"x.enc.w0", "x.dec.w_out", "y.cross.a", "y.cross.b"} <= set(arrays)


class TestConfigInput:
    # the fields of removed variants, as configs and checkpoints wrote them
    OLD_DEFAULTS = {"training_mode": "combined", "cross_map": "diagonal",
                    "cross_hidden": [16], "early_stop_patience": 0,
                    "early_stop_min_delta": 1e-5}

    def test_removed_fields_at_old_defaults_are_dropped(self):
        config = cae.CaeConfig.from_dict({"beta": 0.5, **self.OLD_DEFAULTS})
        assert config == cae.CaeConfig(beta=0.5)

    @pytest.mark.parametrize("field, value", [
        ("training_mode", "alternating"), ("cross_map", "mlp"),
        ("cross_hidden", [8]), ("early_stop_patience", 5),
        ("early_stop_min_delta", 1e-3)])
    def test_removed_variant_is_named(self, field, value):
        with pytest.raises(DataError, match=field):
            cae.CaeConfig.from_dict({field: value})

    @pytest.mark.parametrize("fields", [
        {"beta": -1}, {"bottleneck_dim": 0}, {"batch_size": 0},
        {"bottleneck_dim": "four"}, {"colour": "red"}, {"encoder_hidden": [0]},
        {"decoder_hidden_per_variable": [0]}, {"bottleneck_dim": 2.5},
        {"batch_size": 1e9}, {"epochs": True}, {"seed": -1}, {"learning_rate": -1},
        {"gamma": float("nan")}, {"beta": True}, {"kl_threshold": float("inf")},
        {"beta": float("inf")}, {"gamma": 10 ** 400}])
    def test_invalid_fields_are_data_errors(self, fields):
        with pytest.raises(DataError):
            cae.CaeConfig.from_dict(fields)


def test_training_smoke_and_history():
    from macrobottle import datagen
    pair = datagen.gen_main_synthetic(300, seed=30)
    config = cae.CaeConfig(bottleneck_dim=2, encoder_hidden=(16,),
                           decoder_hidden_per_variable=(8,), epochs=3,
                           batch_size=64, seed=31)
    model, history = cae.train_cae(pair, config)
    assert all(len(v) == 3 for v in history.terms.values())
    assert len(history.val) == 3
    # validation metrics are deterministic (no noise at evaluation)
    val_idx = pair.rows(datagen.VAL)
    m1, rows1, enc = cae.evaluate_model(model, pair.x[val_idx], pair.y[val_idx])
    m2, rows2, _ = cae.evaluate_model(model, pair.x[val_idx], pair.y[val_idx])
    assert m1 == m2 and rows1 == rows2
    # the metrics and the encoding come from one encode of the same rows
    assert m1["kl_x"] == enc.mask_x.kl.tolist() and m1["kl_y"] == enc.mask_y.kl.tolist()
    assert m1["informative_x"] == enc.mask_x.count
    assert np.array_equal(enc.mu_x, model.net_x.encode_mean(pair.x[val_idx]))


@pytest.mark.parametrize("weight", ["beta", "gamma"])
def test_huge_loss_weight_is_numerical_error(weight):
    # the squared gradient overflows Adam's second moment, which would zero
    # those updates and freeze training behind a RuntimeWarning
    from macrobottle import datagen
    pair = datagen.gen_main_synthetic(300, seed=30)
    config = cae.CaeConfig(epochs=2, batch_size=64, seed=31, **{weight: 1e300})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"Adam step \d+"):
            cae.train_cae(pair, config)
