"""Minimal reverse-mode differentiation over dense float64 arrays.

Everything trained in this package (bottleneck networks, additive decoders,
monotone 1-D transforms) is an MLP-shaped graph, so the op set is deliberately
small: affine maps, elementwise nonlinearities, reductions and broadcasting.
Gradients accumulate into named parameters held by a ParamStore, which also
owns the Adam state. All computations are float64 and deterministic for a
fixed seed on a fixed platform.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionError, TapeError

LOGVAR_MIN = -20.0
LOGVAR_MAX = 5.0

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _as_array(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    return a


class Tensor:
    """A node in the reverse-mode graph.

    Leaf tensors created through ParamStore.add have requires_grad=True and
    receive accumulated gradients in .grad; everything else is an internal
    node whose gradient lives only for the duration of one backward pass.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward_fn=None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward_fn = _backward_fn

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])


def constant(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _binary(a, b, forward, grad_a, grad_b) -> Tensor:
    a = constant(a)
    b = constant(b)
    req = a.requires_grad or b.requires_grad
    out_data = forward(a.data, b.data)

    def backward_fn(g, sink):
        if a.requires_grad:
            sink(a, _unbroadcast(grad_a(g), a.data.shape))
        if b.requires_grad:
            sink(b, _unbroadcast(grad_b(g), b.data.shape))

    return Tensor(out_data, req, (a, b), backward_fn if req else None)


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y, lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a = constant(a)
    b = constant(b)
    return _binary(a, b, lambda x, y: x * y,
                   lambda g: g * b.data, lambda g: g * a.data)


def matmul(a, b) -> Tensor:
    a = constant(a)
    b = constant(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul shapes incompatible: {a.data.shape} @ {b.data.shape}")
    return _binary(a, b, lambda x, y: x @ y,
                   lambda g: g @ b.data.T, lambda g: a.data.T @ g)


def _unary(a, out_data, grad_fn) -> Tensor:
    a = constant(a)

    def backward_fn(g, sink):
        sink(a, grad_fn(g))

    return Tensor(out_data, a.requires_grad, (a,),
                  backward_fn if a.requires_grad else None)


def tanh(a) -> Tensor:
    a = constant(a)
    t = np.tanh(a.data)
    return _unary(a, t, lambda g: g * (1.0 - t * t))


def exp(a) -> Tensor:
    a = constant(a)
    e = np.exp(a.data)
    return _unary(a, e, lambda g: g * e)


def square(a) -> Tensor:
    a = constant(a)
    return _unary(a, a.data * a.data, lambda g: g * (2.0 * a.data))


def softplus(a) -> Tensor:
    """log(1 + e^x), overflow-safe; gradient is the logistic function."""
    a = constant(a)
    out = np.logaddexp(0.0, a.data)
    sig = 1.0 / (1.0 + np.exp(-a.data))
    return _unary(a, out, lambda g: g * sig)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp with zero gradient outside [lo, hi]."""
    a = constant(a)
    mask = (a.data >= lo) & (a.data <= hi)
    return _unary(a, np.clip(a.data, lo, hi), lambda g: g * mask)


def cols(a, j0: int, j1: int) -> Tensor:
    """Column slice [:, j0:j1] of a 2-D tensor."""
    a = constant(a)
    if a.data.ndim != 2:
        raise DimensionError("cols expects a 2-D tensor")

    def grad_fn(g):
        full = np.zeros_like(a.data)
        full[:, j0:j1] = g
        return full

    return _unary(a, a.data[:, j0:j1].copy(), grad_fn)


def total_sum(a) -> Tensor:
    a = constant(a)
    return _unary(a, np.array(a.data.sum()),
                  lambda g: np.broadcast_to(g, a.data.shape).copy())


def mean(a) -> Tensor:
    a = constant(a)
    n = a.data.size
    return _unary(a, np.array(a.data.mean()),
                  lambda g: np.broadcast_to(g / n, a.data.shape).copy())


def mse(pred, target) -> Tensor:
    """Mean squared error pooled over every entry."""
    return mean(square(sub(pred, target)))


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(param) into every reachable parameter's .grad.

    Repeated calls on the same graph keep accumulating (callers zero grads
    between steps); gradients of internal nodes are discarded after the pass.
    """
    if loss.data.size != 1:
        raise TapeError("backward expects a scalar loss")
    if not loss._parents and not loss.requires_grad:
        raise TapeError("backward called on a tensor with no forward graph")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}

    # accumulation is out-of-place: pass-through gradients may be shared
    # between parents, so stored arrays must never be mutated
    def sink(node: Tensor, g: np.ndarray):
        cur = grads.get(id(node))
        grads[id(node)] = g if cur is None else cur + g

    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward_fn is not None:
            node._backward_fn(g, sink)
        elif node.requires_grad:
            node.grad += g


# ---------------------------------------------------------------------------
# parameters and Adam


class ParamStore:
    """Named parameter tensors with gradient accumulators and Adam state.

    Parameter values, gradients and both Adam moments each live in one
    contiguous float64 buffer; every parameter's .data and .grad are views
    into them, so zeroing gradients and an Adam step are whole-buffer ops.
    """

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self._data = np.zeros(0)
        self._grad = np.zeros(0)
        self._m = np.zeros(0)
        self._v = np.zeros(0)
        self.step_count = 0

    def add(self, name: str, data) -> Tensor:
        """Append a parameter; the buffers grow and every view is re-bound."""
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name: {name}")
        value = np.array(data, dtype=np.float64)
        t = Tensor(value, requires_grad=True)
        self._tensors[name] = t
        zeros = np.zeros(value.size)
        self._data = np.concatenate([self._data, value.reshape(-1)])
        self._grad = np.concatenate([self._grad, zeros])
        self._m = np.concatenate([self._m, zeros])
        self._v = np.concatenate([self._v, zeros])
        offset = 0
        for p in self._tensors.values():
            end = offset + p.data.size
            p.data = self._data[offset:end].reshape(p.data.shape)
            p.grad = self._grad[offset:end].reshape(p.data.shape)
            offset = end
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def names(self) -> list[str]:
        return list(self._tensors)

    def zero_grad(self) -> None:
        self._grad.fill(0.0)

    def adam_step(self, learning_rate: float) -> None:
        """One Adam update over all parameters at once."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        g = self._grad
        self._m *= ADAM_BETA1
        self._m += (1.0 - ADAM_BETA1) * g
        self._v *= ADAM_BETA2
        self._v += (1.0 - ADAM_BETA2) * (g * g)
        self._data -= learning_rate * (self._m / bc1) / (np.sqrt(self._v / bc2) + ADAM_EPS)

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._tensors.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite every parameter; the names must match exactly."""
        missing = sorted(set(self._tensors) - set(arrays))
        extra = sorted(set(arrays) - set(self._tensors))
        if missing or extra:
            raise DataError(f"parameter arrays do not match: missing {missing}, "
                            f"extra {extra}")
        for name, t in self._tensors.items():
            src = _as_array(arrays[name])
            if src.shape != t.data.shape:
                raise DimensionError(
                    f"checkpoint shape mismatch for {name}: "
                    f"{src.shape} vs {t.data.shape}")
            t.data[...] = src


# ---------------------------------------------------------------------------
# MLPs


@dataclass(frozen=True)
class MlpSpec:
    """Dense feed-forward network: tanh after every layer but the last.
    weight_constraint='nonnegative' stores raw weights and maps them through
    softplus in the forward pass, which combined with the non-decreasing tanh
    makes the whole map monotone non-decreasing.
    """

    layer_widths: tuple[int, ...]
    weight_constraint: str = "free"  # "free" | "nonnegative"

    def __post_init__(self):
        if len(self.layer_widths) < 2:
            raise ValueError("MlpSpec needs at least input and output widths")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError("layer widths must be >= 1")
        if self.weight_constraint not in ("free", "nonnegative"):
            raise ValueError(f"unknown weight constraint: {self.weight_constraint}")


def softplus_inv(y: np.ndarray | float) -> np.ndarray:
    """Inverse of log(1+e^x), for initializing raw nonnegative weights."""
    y = np.asarray(y, dtype=np.float64)
    return y + np.log(-np.expm1(-y))


def init_mlp(spec: MlpSpec, store: ParamStore, rng: np.random.Generator,
             prefix: str, out_scale: float = 1.0) -> None:
    """Create w{i}/b{i} parameters for the layers of spec under a prefix.

    Uniform(+-1/sqrt(fan_in)) weights; the last layer is scaled by out_scale
    (a small out_scale starts bottleneck heads near the prior). Nonnegative
    specs store softplus-preimages of positive initial weights.
    """
    widths = spec.layer_widths
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = rng.uniform(-bound, bound, size=(fan_out,))
        if i == len(widths) - 2:
            w *= out_scale
            b *= out_scale
        if spec.weight_constraint == "nonnegative":
            # positive magnitudes with a floor so softplus_inv stays finite
            w = softplus_inv(np.abs(w) + 0.05)
        store.add(f"{prefix}w{i}", w)
        store.add(f"{prefix}b{i}", b)


def mlp_forward(spec: MlpSpec, store: ParamStore, x, prefix: str = "") -> Tensor:
    """Forward pass; the graph it builds is what backward() differentiates."""
    x = constant(x)
    if x.data.ndim != 2 or x.data.shape[1] != spec.layer_widths[0]:
        raise DimensionError(
            f"input shape {x.data.shape} does not match "
            f"first layer width {spec.layer_widths[0]}")
    h = x
    n_layers = len(spec.layer_widths) - 1
    for i in range(n_layers):
        w = store[f"{prefix}w{i}"]
        if spec.weight_constraint == "nonnegative":
            w = softplus(w)
        h = add(matmul(h, w), store[f"{prefix}b{i}"])
        if i < n_layers - 1:
            h = tanh(h)
    return h


def gaussian_reparam(mu: Tensor, logvar: Tensor, rng: np.random.Generator) -> Tensor:
    """Differentiable sample mu + sigma * eps with eps ~ N(0, 1).

    logvar is clamped to [LOGVAR_MIN, LOGVAR_MAX] before exponentiation, so
    at the lower clamp the sample collapses to mu.
    """
    mu = constant(mu)
    logvar = constant(logvar)
    if mu.data.shape != logvar.data.shape:
        raise DimensionError(
            f"mu/logvar shapes differ: {mu.data.shape} vs {logvar.data.shape}")
    eps = rng.standard_normal(mu.data.shape)
    sigma = exp(mul(clip(logvar, LOGVAR_MIN, LOGVAR_MAX), 0.5))
    return add(mu, mul(sigma, eps))


def kl_standard_normal(mu: Tensor, logvar: Tensor) -> Tensor:
    """Mean over samples of the per-sample sum over neurons of
    0.5 * (mu^2 + sigma^2 - 1 - log sigma^2), the closed-form divergence of
    a diagonal Gaussian from the standard normal."""
    mu = constant(mu)
    logvar = constant(logvar)
    lv = clip(logvar, LOGVAR_MIN, LOGVAR_MAX)
    n = mu.data.shape[0]
    per_entry = sub(sub(add(square(mu), exp(lv)), 1.0), lv)
    return mul(total_sum(per_entry), 0.5 / n)


# ---------------------------------------------------------------------------
# checkpoint format: little-endian float64 blob + JSON manifest

CHECKPOINT_FORMAT = "macrobottle-checkpoint-v1"
_MANIFEST_NAME = "manifest.json"
_BLOB_NAME = "params.bin"


def save_checkpoint(dirpath: str | Path, arrays: dict[str, np.ndarray],
                    extra: dict | None = None) -> None:
    """Write named arrays as one little-endian binary blob plus a JSON
    manifest recording names, shapes, byte offsets and the blob's sha256."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    manifest = {"format": CHECKPOINT_FORMAT, "dtype": "<f8", "arrays": []}
    offset = 0
    digest = hashlib.sha256()
    with open(dirpath / _BLOB_NAME, "wb") as fh:
        for name in sorted(arrays):
            src = np.asarray(arrays[name], dtype=np.float64)
            a = np.ascontiguousarray(src, dtype="<f8").tobytes()
            fh.write(a)
            digest.update(a)
            manifest["arrays"].append(
                {"name": name, "shape": list(src.shape), "offset": offset})
            offset += len(a)
    manifest["sha256"] = digest.hexdigest()
    if extra is not None:
        manifest["extra"] = extra
    with open(dirpath / _MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


def load_checkpoint(dirpath: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    dirpath = Path(dirpath)
    with open(dirpath / _MANIFEST_NAME, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"unrecognized checkpoint format in {dirpath}")
    blob = (dirpath / _BLOB_NAME).read_bytes()
    counts = [int(np.prod(entry["shape"])) for entry in manifest["arrays"]]
    if len(blob) != 8 * sum(counts):
        raise DataError(f"{dirpath / _BLOB_NAME} holds {len(blob)} bytes, "
                        f"the manifest lists {8 * sum(counts)}")
    digest = manifest.get("sha256")  # absent from manifests of older versions
    if digest is not None and hashlib.sha256(blob).hexdigest() != digest:
        raise DataError(f"{dirpath / _BLOB_NAME} does not match the sha256 in its manifest")
    arrays = {}
    for entry, count in zip(manifest["arrays"], counts):
        a = np.frombuffer(blob, dtype="<f8", count=count, offset=entry["offset"])
        arrays[entry["name"]] = a.reshape(entry["shape"]).astype(np.float64)
    return arrays, manifest.get("extra", {})
