"""Core engine checks: the shared MLP pass and Gaussian bottleneck, gradients
vs finite differences, Adam, checkpoints."""

from __future__ import annotations

import json
import os
import tracemalloc

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


def central_diff(fn, a: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of fn(array) at a, entry by entry."""
    g = np.zeros_like(a)
    for i in np.ndindex(a.shape):
        up, down = a.copy(), a.copy()
        up[i] += h
        down[i] -= h
        g[i] = (fn(up) - fn(down)) / (2.0 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return float(np.abs(a - b).max() / denom)


def naive_mlp(widths, params, x):
    """Nested-loop forward pass, independent of mlp_forward."""
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
        if li < len(widths) - 2:
            out = np.tanh(out)
        h = out
    return h


def forward(layers, x):
    return ad.mlp_forward(layers, x)[-1]


def mse_node(layers, x, target):
    """Mean squared error of the MLP's output as one loss node."""
    hs = ad.mlp_forward(layers, x)
    diff = hs[-1] - target

    def backward_fn(g):
        ad.mlp_backward(layers, hs, (2.0 * g / diff.size) * diff)

    return ad.Tensor(np.mean(diff * diff), _backward_fn=backward_fn)


class TestMlpForward:
    def test_identity_single_layer(self):
        store = ad.ParamStore()
        layers = [(store.add("w0", np.eye(2)), store.add("b0", np.zeros(2)), None)]
        out = forward(layers, np.array([[1.0, 2.0]]))
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_zero_weights_zero_bias(self):
        store = ad.ParamStore()
        layers = [(store.add("w0", np.zeros((3, 4))), store.add("b0", np.zeros(4)), None),
                  (store.add("w1", np.zeros((4, 2))), store.add("b1", np.zeros(2)), None)]
        out = forward(layers, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.all(out == 0.0)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(42)
        widths = (4, 6, 5, 3)
        store = ad.ParamStore()
        layers = ad.init_mlp(store, rng, "", widths)
        x = rng.normal(size=(7, 4))
        hs = ad.mlp_forward(layers, x)
        expected = naive_mlp(widths, {n: store[n].data for n in store.names()}, x)
        assert np.abs(hs[-1] - expected).max() < 1e-12
        # every layer's input is kept for the backward pass, then the output
        assert [h.shape[1] for h in hs] == list(widths)
        assert np.array_equal(hs[0], x)

    def test_shape_mismatch_rejected(self):
        layers = ad.init_mlp(ad.ParamStore(), np.random.default_rng(0), "", (4, 3))
        with pytest.raises(DimensionError):
            forward(layers, np.zeros((2, 5)))

    def test_input_left_untouched(self):
        # the bias and tanh act in place, on each layer's own matmul output
        rng = np.random.default_rng(5)
        layers = ad.init_mlp(ad.ParamStore(), rng, "", (4, 6, 3))
        x = rng.normal(size=(7, 4))
        before = x.copy()
        hs = ad.mlp_forward(layers, x)
        assert np.array_equal(x, before)
        assert hs[0] is x and all(not np.shares_memory(x, h) for h in hs[1:])


class TestBackward:
    def test_bias_gradient_of_sum_is_ones(self):
        store = ad.ParamStore()
        layers = [(store.add("w0", np.eye(3)), store.add("b0", np.zeros(3)), None)]
        hs = ad.mlp_forward(layers, np.random.default_rng(1).normal(size=(4, 3)))
        ad.mlp_backward(layers, hs, np.ones((4, 3)))
        assert np.array_equal(store["b0"].grad, np.full(3, 4.0))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        store = ad.ParamStore()
        layers = ad.init_mlp(store, rng, "", (3, 5, 4, 2))
        x = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 2))

        store.zero_grad()
        ad.backward(mse_node(layers, x, target))
        for name in store.names():
            fd = finite_diff_grad(store, name, lambda: mse_node(layers, x, target).item())
            assert rel_err(store[name].grad, fd) < 1e-4, name

    def test_nonnegative_constraint_gradients(self):
        rng = np.random.default_rng(11)
        store = ad.ParamStore()
        layers = ad.init_mlp(store, rng, "", (1, 4, 1), ad.SOFTPLUS)
        x = rng.normal(size=(5, 1))
        zero = np.zeros((5, 1))

        store.zero_grad()
        ad.backward(mse_node(layers, x, zero))
        for name in store.names():
            fd = finite_diff_grad(store, name, lambda: mse_node(layers, x, zero).item())
            assert rel_err(store[name].grad, fd) < 1e-4, name

    def test_double_backward_doubles_gradients(self):
        rng = np.random.default_rng(12)
        store = ad.ParamStore()
        layers = ad.init_mlp(store, rng, "", (2, 3, 1))
        loss = mse_node(layers, rng.normal(size=(4, 2)), rng.normal(size=(4, 1)))
        ad.backward(loss)
        once = {n: store[n].grad.copy() for n in store.names()}
        ad.backward(loss)
        for name, g in once.items():
            assert np.array_equal(store[name].grad, 2.0 * g), name

    def test_backward_without_forward_raises(self):
        with pytest.raises(TapeError):
            ad.backward(ad.Tensor(3.0))

    def test_backward_on_a_non_scalar_raises(self):
        with pytest.raises(TapeError, match="scalar loss"):
            ad.backward(ad.Tensor(np.ones(2), _backward_fn=lambda g: None))

    def test_shared_subexpression_gradient(self):
        # the bottleneck mean reaches the loss through the sample and the
        # divergence; both contributions must add up in the encoder
        rng = np.random.default_rng(13)
        store = ad.ParamStore()
        layers = ad.init_mlp(store, rng, "", (3, 4, 2))
        x = rng.normal(size=(5, 3))

        def loss():
            hs = ad.mlp_forward(layers, x)
            z, kl, cache = ad.gaussian_bottleneck(hs[-1][:, :1], hs[-1][:, 1:],
                                                  np.random.default_rng(77))

            def backward_fn(g):
                g_mu, g_lv = ad.gaussian_bottleneck_grad(cache, g * 2.0 * z, g * 0.7)
                ad.mlp_backward(layers, hs, np.hstack([g_mu, g_lv]))

            return ad.Tensor((z * z).sum() + 0.7 * kl.sum(), _backward_fn=backward_fn)

        store.zero_grad()
        ad.backward(loss())
        for name in store.names():
            fd = finite_diff_grad(store, name, lambda: loss().item())
            assert rel_err(store[name].grad, fd) < 1e-6, name


def _layers(kind: str, rng: np.random.Generator) -> tuple[ad.ParamStore, list[tuple]]:
    """Three layers of each weight map: plain, 0/1-masked or SOFTPLUS."""
    store = ad.ParamStore()
    widths = (4, 6, 6, 2)
    if kind == "masked":
        masks = [rng.integers(0, 2, size=(a, b)).astype(float)
                 for a, b in zip(widths, widths[1:])]
        layers = [(store.add(f"w{i}", rng.normal(size=m.shape) * m),
                   store.add(f"b{i}", rng.normal(size=m.shape[1])), m)
                  for i, m in enumerate(masks)]
        return store, layers
    return store, ad.init_mlp(store, rng, "", widths, ad.SOFTPLUS if kind == "softplus" else None)


@pytest.mark.parametrize("kind", ["plain", "masked", "softplus"])
def test_backward_without_input_grad_adds_the_same_parameter_gradients(kind):
    rng = np.random.default_rng(31)
    store, layers = _layers(kind, rng)
    hs = ad.mlp_forward(layers, rng.normal(size=(9, 4)))
    g = rng.normal(size=(9, 2))
    kept = [h.copy() for h in hs], g.copy()
    grads = []
    for input_grad in (True, False):
        for name in store.names():
            store[name].grad[...] = 0.25  # the pass adds onto what is there
        out = ad.mlp_backward(layers, hs, g, input_grad=input_grad)
        assert (out is None) != input_grad
        grads.append({name: store[name].grad.copy() for name in store.names()})
    assert all(np.array_equal(grads[0][name], grads[1][name]) for name in store.names())
    # neither the layer values nor the output gradient were written to
    assert all(np.array_equal(a, b) for a, b in zip(hs, kept[0])) and np.array_equal(g, kept[1])


class TestOps:
    def test_broadcast_add_bias(self):
        # the bias is added to every row, so its gradient sums over rows
        store = ad.ParamStore()
        b = store.add("b0", np.array([1.0, 2.0]))
        layers = [(store.add("w0", np.zeros((2, 2))), b, None)]
        hs = ad.mlp_forward(layers, np.zeros((3, 2)))
        assert np.array_equal(hs[-1], np.tile([1.0, 2.0], (3, 1)))
        ad.mlp_backward(layers, hs, np.arange(6.0).reshape(3, 2))
        assert np.array_equal(b.grad, [6.0, 9.0])

    def test_clip_zero_gradient_outside_range(self):
        mu = np.zeros((1, 3))
        logvar = np.array([[-30.0, 0.0, 10.0]])
        _, kl, cache = ad.gaussian_bottleneck(mu, logvar, np.random.default_rng(0))
        lv = np.array([[-20.0, 0.0, 5.0]])  # the clamped values
        assert np.array_equal(kl, 0.5 * (np.exp(lv) - 1.0 - lv))
        _, g_lv = ad.gaussian_bottleneck_grad(cache, np.ones((1, 3)), 1.0)
        assert g_lv[0, 0] == 0.0 and g_lv[0, 2] == 0.0
        assert g_lv[0, 1] != 0.0

    def test_softplus_values_and_grad(self):
        # a SOFTPLUS layer applies softplus(raw weight); the raw weight's
        # gradient carries the logistic factor
        store = ad.ParamStore()
        v = store.add("w0", np.array([[-4.0, 0.0, 3.0]]))
        layers = [(v, store.add("b0", np.zeros(3)), ad.SOFTPLUS)]
        hs = ad.mlp_forward(layers, np.ones((1, 1)))
        assert np.allclose(hs[-1], np.log1p(np.exp(v.data)))
        ad.mlp_backward(layers, hs, np.ones((1, 3)))
        assert np.allclose(v.grad, 1.0 / (1.0 + np.exp(-v.data)))


class TestAdam:
    def test_duplicate_parameter_name_is_rejected(self):
        store = ad.ParamStore()
        store.add("p", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate parameter name: p"):
            store.add("p", np.zeros(3))
        assert store.names() == ["p"] and store["p"].data.shape == (2,)

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
        mu = np.array([[1.0, -2.0]])
        z, _, _ = ad.gaussian_bottleneck(mu, np.full((1, 2), -50.0), np.random.default_rng(0))
        assert np.abs(z - mu).max() < 1e-3

    def test_monte_carlo_moments(self):
        n = 100_000
        z, _, _ = ad.gaussian_bottleneck(np.zeros((n, 1)), np.zeros((n, 1)),
                                         np.random.default_rng(123))
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_fixed_seed_bit_identical(self):
        mu = np.ones((4, 3))
        logvar = np.full((4, 3), -1.0)
        z1, _, _ = ad.gaussian_bottleneck(mu, logvar, np.random.default_rng(9))
        z2, _, _ = ad.gaussian_bottleneck(mu, logvar, np.random.default_rng(9))
        assert np.array_equal(z1, z2)

    def test_gradient_flows_through_sample(self):
        rng_data = np.random.default_rng(5)
        mu = rng_data.normal(size=(3, 2))
        lv = rng_data.normal(scale=0.5, size=(3, 2))
        w = rng_data.normal(size=(3, 2))

        def value(mu, lv):  # a weighted sum of the sample only
            return float((w * ad.gaussian_bottleneck(mu, lv, np.random.default_rng(77))[0]).sum())

        _, _, cache = ad.gaussian_bottleneck(mu, lv, np.random.default_rng(77))
        g_mu, g_lv = ad.gaussian_bottleneck_grad(cache, w, 0.0)
        assert rel_err(g_mu, central_diff(lambda m: value(m, lv), mu)) < 1e-6
        assert rel_err(g_lv, central_diff(lambda v: value(mu, v), lv)) < 1e-6


class TestKl:
    def test_zero_at_prior(self):
        _, kl, _ = ad.gaussian_bottleneck(np.zeros((5, 3)), np.zeros((5, 3)),
                                          np.random.default_rng(0))
        assert not kl.any()

    def test_unit_mean_single_neuron(self):
        _, kl, _ = ad.gaussian_bottleneck(np.ones((4, 1)), np.zeros((4, 1)),
                                          np.random.default_rng(0))
        assert np.array_equal(kl, np.full((4, 1), 0.5))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        mu = rng.normal(size=(4, 2))
        lv = rng.normal(scale=0.5, size=(4, 2))
        w = rng.normal(size=(4, 2))  # one weight per divergence entry

        def value(mu, lv):
            return float((w * ad.gaussian_bottleneck(mu, lv, np.random.default_rng(0))[1]).sum())

        _, _, cache = ad.gaussian_bottleneck(mu, lv, np.random.default_rng(0))
        g_mu, g_lv = ad.gaussian_bottleneck_grad(cache, np.zeros((4, 2)), w)
        assert rel_err(g_mu, central_diff(lambda m: value(m, lv), mu)) < 1e-6
        assert rel_err(g_lv, central_diff(lambda v: value(mu, v), lv)) < 1e-6


def _saved_store(path):
    store = ad.ParamStore()
    store.add("w", np.arange(6.0).reshape(2, 3))
    store.add("b", np.ones(3))
    ad.save_checkpoint(path, store.arrays())
    return store


def _saved_matrices(path):
    """Two 10 000 x 64 arrays, the size of the benchmark's dataset twin, saved."""
    rng = np.random.default_rng(5)
    arrays = {"X": rng.normal(size=(10_000, 64)), "Y": rng.normal(size=(10_000, 64))}
    ad.save_checkpoint(path, arrays)
    return arrays


def _traced_load(path):
    """What load_checkpoint returns, or the DataError it raises, and the
    tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        try:
            result = ad.load_checkpoint(path)
        except DataError as err:
            result = err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


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
        store = ad.ParamStore()
        layers = ad.init_mlp(store, rng, "", (3, 4, 2))
        x = rng.normal(size=(5, 3))
        before = forward(layers, x)
        ad.save_checkpoint(tmp_path / "ck", store.arrays())
        arrays, _ = ad.load_checkpoint(tmp_path / "ck")
        store2 = ad.ParamStore()
        layers2 = ad.init_mlp(store2, np.random.default_rng(99), "", (3, 4, 2))
        store2.load_arrays(arrays)
        after = forward(layers2, x)
        assert np.array_equal(before, after)

    def test_truncated_blob_is_data_error(self, tmp_path):
        _saved_store(tmp_path / "ck")
        blob = tmp_path / "ck" / "params.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(DataError, match="bytes"):
            ad.load_checkpoint(tmp_path / "ck")

    def test_load_peak_memory_is_the_arrays(self, tmp_path):
        # each array is read straight into the array returned; a load that
        # holds the whole blob as bytes and copies each array out reads 2x
        arrays = _saved_matrices(tmp_path / "ck")
        (loaded, _), peak = _traced_load(tmp_path / "ck")
        assert peak <= 1.1 * sum(a.nbytes for a in arrays.values())
        for name, a in arrays.items():
            assert loaded[name].tobytes() == a.tobytes()

    # each change to the blob's layout and the message of the check it must reach
    LAYOUT = {"gap": "not right after the array before it",
              "overlap": "not right after the array before it",
              "longer": "holds 10240008 bytes, the manifest lists 10240000",
              "shorter": "holds 10239992 bytes, the manifest lists 10240000"}

    @pytest.mark.parametrize("edit", list(LAYOUT))
    def test_layout_unlike_the_manifest_is_caught_before_allocating(self, tmp_path, edit):
        arrays = _saved_matrices(tmp_path / "ck")
        blob, path = tmp_path / "ck" / "params.bin", tmp_path / "ck" / "manifest.json"
        if edit in ("gap", "overlap"):  # Y starts 8 bytes after or before X's end
            manifest = json.loads(path.read_text())
            manifest["arrays"][1]["offset"] += 8 if edit == "gap" else -8
            manifest["manifest_sha256"] = ad._manifest_digest(manifest)
            path.write_text(json.dumps(manifest))
        else:
            os.truncate(blob, blob.stat().st_size + (8 if edit == "longer" else -8))
        err, peak = _traced_load(tmp_path / "ck")
        assert isinstance(err, DataError) and self.LAYOUT[edit] in str(err)
        assert peak < arrays["X"].nbytes / 50  # no array was allocated

    # each edit and the message of the check it must reach
    MALFORMED = {"not-json": "invalid JSON", "no-arrays": "malformed array list",
                 "entry-without-shape": "malformed array list",
                 "not-an-object": "unrecognized checkpoint format",
                 "offset-outside-blob": "outside the blob",
                 "negative-dimension": "outside the blob",
                 "infinite-offset": "malformed array list"}

    @pytest.mark.parametrize("edit", list(MALFORMED))
    def test_malformed_manifest_is_data_error(self, tmp_path, edit):
        _saved_store(tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(path.read_text())
        entry = manifest["arrays"][0]  # "b", three values
        if edit == "no-arrays":
            del manifest["arrays"]
        elif edit == "entry-without-shape":
            del entry["shape"]
        elif edit == "offset-outside-blob":
            entry["offset"] = 10 ** 6
        elif edit == "negative-dimension":
            entry["shape"] = [-1, -3]  # as many values as the blob holds for it
        elif edit == "infinite-offset":
            entry["offset"] = float("inf")
        # a new digest, so the edit reaches the checks behind it
        manifest["manifest_sha256"] = ad._manifest_digest(manifest)
        if edit == "not-an-object":
            manifest = [manifest]
        path.write_text("{format" if edit == "not-json" else json.dumps(manifest))
        with pytest.raises(DataError, match=self.MALFORMED[edit]):
            ad.load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("shape", [[2**64, 0], [2**63, 0], [0] * 70],
                             ids=["2**64-by-0", "2**63-by-0", "70-zero-dimensions"])
    def test_empty_array_numpy_cannot_hold_is_data_error(self, tmp_path, shape):
        # it holds no value, so the blob's size matches the manifest
        arrays = _saved_matrices(tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(path.read_text())
        end = sum(a.nbytes for a in arrays.values())
        manifest["arrays"].append({"name": "empty", "shape": shape, "offset": end})
        manifest["manifest_sha256"] = ad._manifest_digest(manifest)
        path.write_text(json.dumps(manifest))
        err, peak = _traced_load(tmp_path / "ck")
        assert isinstance(err, DataError) and "array 'empty'" in str(err)
        assert peak < arrays["X"].nbytes / 50  # not even the arrays listed before it

    def test_edited_manifest_is_data_error(self, tmp_path):
        _saved_store(tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["arrays"][0]["name"] = "renamed"
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="its own sha256"):
            ad.load_checkpoint(tmp_path / "ck")

    def test_manifest_without_a_digest_is_data_error(self, tmp_path):
        _saved_store(tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        saved = json.loads(path.read_text())
        for key in ("sha256", "manifest_sha256"):
            manifest = {k: v for k, v in saved.items() if k != key}
            if key == "sha256":  # the manifest still matches its own digest
                manifest["manifest_sha256"] = ad._manifest_digest(manifest)
            path.write_text(json.dumps(manifest))
            with pytest.raises(DataError, match=f"lacks {key}"):
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

    def test_wrong_shape_array_is_data_error(self, tmp_path):
        store = _saved_store(tmp_path / "ck")
        arrays, _ = ad.load_checkpoint(tmp_path / "ck")
        arrays["w"] = arrays["w"].T
        with pytest.raises(DataError, match="shape mismatch for w"):
            store.load_arrays(arrays)


def test_forward_sample_step_deterministic_per_seed():
    def run(seed):
        rng = np.random.default_rng(seed)
        store = ad.ParamStore()
        layers = ad.init_mlp(store, rng, "", (3, 4, 2))
        x = rng.normal(size=(6, 3))
        for _ in range(3):
            hs = ad.mlp_forward(layers, x)
            z, _, cache = ad.gaussian_bottleneck(hs[-1][:, :1], hs[-1][:, 1:], rng)
            store.zero_grad()
            g_mu, g_lv = ad.gaussian_bottleneck_grad(cache, 2.0 * z / z.size, 0.0)
            ad.mlp_backward(layers, hs, np.hstack([g_mu, g_lv]))
            store.adam_step(1e-3)
        return {n: store[n].data.copy() for n in store.names()}

    a = run(123)
    b = run(123)
    for name in a:
        assert np.array_equal(a[name], b[name])
