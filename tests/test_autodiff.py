"""Core engine checks: shapes, gradients vs finite differences, Adam, reparam."""

from __future__ import annotations

import numpy as np
import pytest

from macrobottle import autodiff as ad
from macrobottle.errors import DataError, DimensionError, TapeError


def finite_diff_grad(store: ad.ParamStore, name: str, loss_fn, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn() w.r.t. the named parameter."""
    p = store[name]
    g = np.zeros_like(p.data)
    flat = p.data.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        down = loss_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return float(np.abs(a - b).max() / denom)


def naive_mlp(widths, params, x, activation="tanh"):
    """Nested-loop forward pass, independent of the Tensor graph."""
    h = x.copy()
    for li in range(len(widths) - 1):
        w = params[f"w{li}"]
        b = params[f"b{li}"]
        out = np.zeros((h.shape[0], widths[li + 1]))
        for r in range(h.shape[0]):
            for c in range(widths[li + 1]):
                acc = b[c]
                for k in range(widths[li]):
                    acc += h[r, k] * w[k, c]
                out[r, c] = acc
        if li < len(widths) - 2 and activation == "tanh":
            out = np.tanh(out)
        h = out
    return h


class TestMlpForward:
    def test_identity_single_layer(self):
        spec = ad.MlpSpec((2, 2), activation="identity")
        store = ad.ParamStore()
        store.add("w0", np.eye(2))
        store.add("b0", np.zeros(2))
        out = ad.mlp_forward(spec, store, np.array([[1.0, 2.0]]))
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_zero_weights_zero_bias(self):
        spec = ad.MlpSpec((3, 4, 2))
        store = ad.ParamStore()
        store.add("w0", np.zeros((3, 4)))
        store.add("b0", np.zeros(4))
        store.add("w1", np.zeros((4, 2)))
        store.add("b1", np.zeros(2))
        out = ad.mlp_forward(spec, store, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.all(out.data == 0.0)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(42)
        widths = (4, 6, 5, 3)
        spec = ad.MlpSpec(widths)
        store = ad.ParamStore()
        ad.init_mlp(spec, store, rng, "")
        x = rng.normal(size=(7, 4))
        out = ad.mlp_forward(spec, store, x)
        expected = naive_mlp(widths, {n: store[n].data for n in store.names()}, x)
        assert np.abs(out.data - expected).max() < 1e-12

    def test_shape_mismatch_rejected(self):
        spec = ad.MlpSpec((4, 3))
        store = ad.ParamStore()
        ad.init_mlp(spec, store, np.random.default_rng(0), "")
        with pytest.raises(DimensionError):
            ad.mlp_forward(spec, store, np.zeros((2, 5)))


class TestBackward:
    def test_bias_gradient_of_sum_is_ones(self):
        spec = ad.MlpSpec((3, 3), activation="identity")
        store = ad.ParamStore()
        store.add("w0", np.eye(3))
        store.add("b0", np.zeros(3))
        out = ad.mlp_forward(spec, store, np.random.default_rng(1).normal(size=(4, 3)))
        ad.backward(ad.total_sum(out))
        assert np.array_equal(store["b0"].grad, np.full(3, 4.0))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        widths = (3, 5, 4, 2)
        spec = ad.MlpSpec(widths)
        store = ad.ParamStore()
        ad.init_mlp(spec, store, rng, "")
        x = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 2))

        def loss_value():
            out = ad.mlp_forward(spec, store, x)
            return ad.mse(out, target).item()

        out = ad.mlp_forward(spec, store, x)
        store.zero_grad()
        ad.backward(ad.mse(out, target))
        for name in store.names():
            fd = finite_diff_grad(store, name, loss_value)
            assert rel_err(store[name].grad, fd) < 1e-4, name

    def test_nonnegative_constraint_gradients(self):
        rng = np.random.default_rng(11)
        spec = ad.MlpSpec((1, 4, 1), weight_constraint="nonnegative")
        store = ad.ParamStore()
        ad.init_mlp(spec, store, rng, "")
        x = rng.normal(size=(5, 1))

        def loss_value():
            return ad.mean(ad.square(ad.mlp_forward(spec, store, x))).item()

        store.zero_grad()
        ad.backward(ad.mean(ad.square(ad.mlp_forward(spec, store, x))))
        for name in store.names():
            fd = finite_diff_grad(store, name, loss_value)
            assert rel_err(store[name].grad, fd) < 1e-4, name

    def test_double_backward_doubles_gradients(self):
        store = ad.ParamStore()
        w = store.add("w", np.array([[2.0, -1.0]]))
        loss = ad.total_sum(ad.square(w))
        ad.backward(loss)
        once = w.grad.copy()
        ad.backward(loss)
        assert np.array_equal(w.grad, 2.0 * once)

    def test_backward_without_forward_raises(self):
        with pytest.raises(TapeError):
            ad.backward(ad.Tensor(3.0))

    def test_shared_subexpression_gradient(self):
        # u feeds the loss through two paths; finite differences catch
        # any accumulation aliasing
        store = ad.ParamStore()
        store.add("u", np.array([[0.3, -0.7]]))

        def make_loss():
            u = store["u"]
            t = ad.tanh(u)
            return ad.total_sum(ad.add(ad.mul(t, t), ad.mul(t, 2.0)))

        store.zero_grad()
        ad.backward(make_loss())
        fd = finite_diff_grad(store, "u", lambda: make_loss().item())
        assert rel_err(store["u"].grad, fd) < 1e-6


class TestOps:
    def test_broadcast_add_bias(self):
        store = ad.ParamStore()
        b = store.add("b", np.array([1.0, 2.0]))
        x = ad.Tensor(np.zeros((3, 2)))
        out = ad.add(x, b)
        ad.backward(ad.total_sum(out))
        assert np.array_equal(b.grad, [3.0, 3.0])

    def test_clip_zero_gradient_outside_range(self):
        store = ad.ParamStore()
        v = store.add("v", np.array([[-30.0, 0.0, 10.0]]))
        out = ad.clip(v, -20.0, 5.0)
        assert np.array_equal(out.data, [[-20.0, 0.0, 5.0]])
        ad.backward(ad.total_sum(out))
        assert np.array_equal(v.grad, [[0.0, 1.0, 0.0]])

    def test_softplus_values_and_grad(self):
        store = ad.ParamStore()
        v = store.add("v", np.array([[-4.0, 0.0, 3.0]]))
        out = ad.softplus(v)
        assert np.allclose(out.data, np.log1p(np.exp(v.data)))
        ad.backward(ad.total_sum(out))
        assert np.allclose(v.grad, 1.0 / (1.0 + np.exp(-v.data)))

    def test_cols_slice_gradient_scatter(self):
        store = ad.ParamStore()
        m = store.add("m", np.arange(6.0).reshape(2, 3))
        out = ad.cols(m, 1, 3)
        assert np.array_equal(out.data, [[1.0, 2.0], [4.0, 5.0]])
        ad.backward(ad.total_sum(out))
        assert np.array_equal(m.grad, [[0, 1, 1], [0, 1, 1]])

    def test_matmul_shape_error(self):
        with pytest.raises(DimensionError):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        store = ad.ParamStore()
        store.add("p", np.array([1.0, -2.0]))
        before = store["p"].data.copy()
        store.zero_grad()
        store.adam_step(0.1)
        assert np.array_equal(store["p"].data, before)

    def test_first_step_matches_hand_evaluation(self):
        # m = 0.1*1, v = 0.001*1, bias-corrected mhat = 1, vhat = 1
        # => step = lr * 1 / (1 + eps)
        store = ad.ParamStore()
        p = store.add("p", np.array([0.0]))
        p.grad[...] = 1.0
        store.adam_step(0.1)
        expected = -0.1 * 1.0 / (1.0 + ad.ADAM_EPS)
        assert abs(p.data[0] - expected) < 1e-15

    def test_constant_gradient_monotone_decrease(self):
        store = ad.ParamStore()
        p = store.add("p", np.array([0.5]))
        values = [p.data[0]]
        for _ in range(100):
            p.grad[...] = 2.0
            store.adam_step(0.01)
            values.append(p.data[0])
        diffs = np.diff(values)
        assert np.all(diffs < 0)

    def test_flat_step_matches_per_array_reference(self):
        # the per-array loop the flat buffers replaced; elementwise ops in
        # the same order, so the two must agree bit for bit
        rng = np.random.default_rng(21)
        shapes = {"w0": (3, 4), "b0": (4,), "w1": (4, 1), "s": ()}
        store = ad.ParamStore()
        for name, shape in shapes.items():
            store.add(name, rng.normal(size=shape))
        ref = {n: store[n].data.copy() for n in shapes}
        m = {n: np.zeros_like(a) for n, a in ref.items()}
        v = {n: np.zeros_like(a) for n, a in ref.items()}
        lr = 0.01
        for t in range(1, 6):
            grads = {n: rng.normal(size=a.shape) for n, a in ref.items()}
            for n, g in grads.items():
                store[n].grad[...] = g
            store.adam_step(lr)
            bc1 = 1.0 - ad.ADAM_BETA1 ** t
            bc2 = 1.0 - ad.ADAM_BETA2 ** t
            for n, g in grads.items():
                m[n] *= ad.ADAM_BETA1
                m[n] += (1.0 - ad.ADAM_BETA1) * g
                v[n] *= ad.ADAM_BETA2
                v[n] += (1.0 - ad.ADAM_BETA2) * (g * g)
                mhat = m[n] / bc1
                vhat = v[n] / bc2
                ref[n] -= lr * mhat / (np.sqrt(vhat) + ad.ADAM_EPS)
            for n in shapes:
                assert np.array_equal(store[n].data, ref[n]), (t, n)


class TestGaussianReparam:
    def test_lower_clamp_collapses_to_mu(self):
        mu = ad.Tensor(np.array([[1.0, -2.0]]))
        logvar = ad.Tensor(np.array([[-50.0, -50.0]]))
        z = ad.gaussian_reparam(mu, logvar, np.random.default_rng(0))
        assert np.abs(z.data - mu.data).max() < 1e-3

    def test_monte_carlo_moments(self):
        n = 100_000
        mu = ad.Tensor(np.zeros((n, 1)))
        logvar = ad.Tensor(np.zeros((n, 1)))
        z = ad.gaussian_reparam(mu, logvar, np.random.default_rng(123))
        assert abs(z.data.mean()) < 0.02
        assert abs(z.data.std() - 1.0) < 0.02

    def test_fixed_seed_bit_identical(self):
        mu = ad.Tensor(np.ones((4, 3)))
        logvar = ad.Tensor(np.full((4, 3), -1.0))
        z1 = ad.gaussian_reparam(mu, logvar, np.random.default_rng(9))
        z2 = ad.gaussian_reparam(mu, logvar, np.random.default_rng(9))
        assert np.array_equal(z1.data, z2.data)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.gaussian_reparam(ad.Tensor(np.zeros((2, 2))),
                                ad.Tensor(np.zeros((2, 3))),
                                np.random.default_rng(0))

    def test_gradient_flows_through_sample(self):
        store = ad.ParamStore()
        mu = store.add("mu", np.zeros((3, 2)))
        lv = store.add("lv", np.zeros((3, 2)))
        rng_data = np.random.default_rng(5)

        def build():
            return ad.mean(ad.square(ad.gaussian_reparam(mu, lv, np.random.default_rng(77))))

        store.zero_grad()
        ad.backward(build())
        fd_mu = finite_diff_grad(store, "mu", lambda: build().item())
        fd_lv = finite_diff_grad(store, "lv", lambda: build().item())
        assert rel_err(mu.grad, fd_mu) < 1e-4
        assert rel_err(lv.grad, fd_lv) < 1e-4
        del rng_data


class TestKl:
    def test_zero_at_prior(self):
        kl = ad.kl_standard_normal(ad.Tensor(np.zeros((5, 3))), ad.Tensor(np.zeros((5, 3))))
        assert kl.item() == 0.0

    def test_unit_mean_single_neuron(self):
        kl = ad.kl_standard_normal(ad.Tensor(np.ones((4, 1))), ad.Tensor(np.zeros((4, 1))))
        assert abs(kl.item() - 0.5) < 1e-15

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        store = ad.ParamStore()
        mu = store.add("mu", rng.normal(size=(4, 2)))
        lv = store.add("lv", rng.normal(scale=0.5, size=(4, 2)))

        def loss():
            return ad.kl_standard_normal(mu, lv)

        store.zero_grad()
        ad.backward(loss())
        assert rel_err(mu.grad, finite_diff_grad(store, "mu", lambda: loss().item())) < 1e-4
        assert rel_err(lv.grad, finite_diff_grad(store, "lv", lambda: loss().item())) < 1e-4


def _saved_store(path):
    store = ad.ParamStore()
    store.add("w", np.arange(6.0).reshape(2, 3))
    store.add("b", np.ones(3))
    ad.save_checkpoint(path, store.arrays())
    return store


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "enc.w0": rng.normal(size=(4, 3)),
            "enc.b0": rng.normal(size=(3,)),
            "scale": np.array(2.5),
        }
        ad.save_checkpoint(tmp_path / "ck", arrays, extra={"note": "t"})
        loaded, extra = ad.load_checkpoint(tmp_path / "ck")
        assert extra == {"note": "t"}
        assert set(loaded) == set(arrays)
        for name in arrays:
            assert np.array_equal(loaded[name], arrays[name])

    def test_store_round_trip_preserves_forward(self, tmp_path):
        rng = np.random.default_rng(4)
        spec = ad.MlpSpec((3, 4, 2))
        store = ad.ParamStore()
        ad.init_mlp(spec, store, rng, "")
        x = rng.normal(size=(5, 3))
        before = ad.mlp_forward(spec, store, x).data
        ad.save_checkpoint(tmp_path / "ck", store.arrays())
        arrays, _ = ad.load_checkpoint(tmp_path / "ck")
        store2 = ad.ParamStore()
        ad.init_mlp(spec, store2, np.random.default_rng(99), "")
        store2.load_arrays(arrays)
        after = ad.mlp_forward(spec, store2, x).data
        assert np.array_equal(before, after)

    def test_truncated_blob_is_data_error(self, tmp_path):
        _saved_store(tmp_path / "ck")
        blob = tmp_path / "ck" / "params.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(DataError, match="bytes"):
            ad.load_checkpoint(tmp_path / "ck")

    def test_missing_array_is_data_error(self, tmp_path):
        store = _saved_store(tmp_path / "ck")
        arrays, _ = ad.load_checkpoint(tmp_path / "ck")
        del arrays["b"]
        with pytest.raises(DataError, match=r"missing \['b'\]"):
            store.load_arrays(arrays)

    def test_extra_array_is_data_error(self, tmp_path):
        store = _saved_store(tmp_path / "ck")
        arrays, _ = ad.load_checkpoint(tmp_path / "ck")
        arrays["stray"] = np.zeros(2)
        with pytest.raises(DataError, match=r"extra \['stray'\]"):
            store.load_arrays(arrays)


def test_forward_sample_step_deterministic_per_seed():
    def run(seed):
        rng = np.random.default_rng(seed)
        spec = ad.MlpSpec((3, 4, 2))
        store = ad.ParamStore()
        ad.init_mlp(spec, store, rng, "")
        x = rng.normal(size=(6, 3))
        for _ in range(3):
            out = ad.mlp_forward(spec, store, x)
            mu = ad.cols(out, 0, 1)
            lv = ad.cols(out, 1, 2)
            z = ad.gaussian_reparam(mu, lv, rng)
            loss = ad.mean(ad.square(z))
            store.zero_grad()
            ad.backward(loss)
            store.adam_step(1e-3)
        return {n: store[n].data.copy() for n in store.names()}

    a = run(123)
    b = run(123)
    for name in a:
        assert np.array_equal(a[name], b[name])
