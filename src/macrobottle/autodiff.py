"""Hand-derived gradients over one flat parameter store.

Everything trained in this package (bottleneck encoders, additive decoders,
monotone 1-D transforms) is a tanh MLP; only the CAE's encoders feed a
Gaussian bottleneck. init_mlp creates an MLP's parameters and returns its
layers; each trained loss is one Tensor node whose backward function is
written out by hand from mlp_forward/mlp_backward (and, for the CAE,
gaussian_bottleneck/gaussian_bottleneck_grad), and backward is one call of
that function, which writes each gradient once into the named parameters
of a ParamStore, whose flat buffers also hold the Adam state. All computations
are float64 and deterministic for a fixed seed on a fixed platform.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionError, NumericalError, TapeError

LOGVAR_MIN = -20.0
LOGVAR_MAX = 5.0

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

SOFTPLUS = "softplus"  # weight map of a monotone layer: softplus of the raw weight


class Tensor:
    """A loss node, or a parameter.

    Parameters created through ParamStore.add receive gradients in .grad. A
    loss node's _backward_fn(g) writes each of its parameters' .grad once,
    over whatever is there, calling the _backward_fn of any node it is built
    on itself; _parents lists exactly those nodes, so a walk over parent links
    reaches every node a backward pass runs.
    """

    __slots__ = ("data", "grad", "_parents", "_backward_fn")

    def __init__(self, data, _parents=(), _backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward_fn = _backward_fn

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])


def backward(loss: Tensor) -> None:
    """Write d(loss)/d(param) into the .grad of every parameter the loss
    depends on: backward writes each gradient once, so a second call writes
    the same values again."""
    if loss.data.size != 1:
        raise TapeError("backward expects a scalar loss")
    if loss._backward_fn is None:
        raise TapeError("backward called on a tensor with no forward graph")
    loss._backward_fn(np.ones_like(loss.data))


# ---------------------------------------------------------------------------
# parameters and Adam


class ParamStore:
    """Named parameter tensors with their gradients and Adam state.

    Parameter values, gradients and both Adam moments each live in one
    contiguous float64 buffer; every parameter's .data and .grad are views
    into them, so an Adam step is whole-buffer ops. backward writes each
    gradient once, so nothing clears the gradient buffer.
    """

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self._data = np.zeros(0)
        self._grad = np.zeros(0)
        self._m = np.zeros(0)
        self._v = np.zeros(0)
        self._scratch = np.zeros((2, 0))  # adam_step's two temporaries
        self.step_count = 0

    def add(self, name: str, data) -> Tensor:
        """Append a parameter; the buffers grow and every view is re-bound."""
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name: {name}")
        value = np.array(data, dtype=np.float64)
        t = Tensor(value)
        self._tensors[name] = t
        zeros = np.zeros(value.size)
        self._data = np.concatenate([self._data, value.reshape(-1)])
        self._grad = np.concatenate([self._grad, zeros])
        self._m = np.concatenate([self._m, zeros])
        self._v = np.concatenate([self._v, zeros])
        self._scratch = np.empty((2, self._data.size))
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

    def adam_step(self, learning_rate: float) -> None:
        """One Adam update over all parameters at once, in place through the
        store's two scratch buffers. A gradient whose square overflows (or is
        not finite) would zero its update and freeze training silently, so
        it raises NumericalError, naming the step."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        g, (s1, s2) = self._grad, self._scratch
        with np.errstate(over="ignore"):
            self._m *= ADAM_BETA1
            self._m += np.multiply(g, 1.0 - ADAM_BETA1, out=s1)
            self._v *= ADAM_BETA2
            np.multiply(g, g, out=s1)
            self._v += np.multiply(s1, 1.0 - ADAM_BETA2, out=s1)
        if not np.isfinite(self._v).all():
            raise NumericalError(
                f"Adam step {t}: the second moment of "
                f"{int(np.count_nonzero(~np.isfinite(self._v)))} gradient entries is "
                f"not finite (a loss weight or gradient too large)")
        # learning_rate * (m / bc1) / (sqrt(v / bc2) + eps), one operation at a time
        np.divide(self._m, bc1, out=s1)
        s1 *= learning_rate
        np.divide(self._v, bc2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += ADAM_EPS
        s1 /= s2
        self._data -= s1

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
            src = np.asarray(arrays[name], dtype=np.float64)
            if src.shape != t.data.shape:
                raise DataError(f"checkpoint shape mismatch for {name}: "
                                f"{src.shape} vs {t.data.shape}")
            t.data[...] = src


# ---------------------------------------------------------------------------
# MLPs


def softplus_inv(y: np.ndarray | float) -> np.ndarray:
    """Inverse of log(1+e^x), for initializing raw SOFTPLUS weights."""
    y = np.asarray(y, dtype=np.float64)
    return y + np.log(-np.expm1(-y))


def init_mlp(store: ParamStore, rng: np.random.Generator, prefix: str,
             widths: tuple[int, ...], wmap=None, out_scale: float = 1.0) -> list[tuple]:
    """Create w{i}/b{i} parameters under a prefix for a dense net of the
    given layer widths and return its (weight, bias, weight map) layers.

    Uniform(+-1/sqrt(fan_in)) weights; the last layer is scaled by out_scale
    (a small out_scale starts bottleneck heads near the prior). With wmap
    SOFTPLUS the stored raw weights are softplus-preimages of positive
    initial weights and the forward pass applies softplus, which with the
    non-decreasing tanh makes the whole map monotone non-decreasing.
    """
    layers = []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = rng.uniform(-bound, bound, size=(fan_out,))
        if i == len(widths) - 2:
            w *= out_scale
            b *= out_scale
        if wmap is SOFTPLUS:
            # positive magnitudes with a floor so softplus_inv stays finite
            w = softplus_inv(np.abs(w) + 0.05)
        layers.append((store.add(f"{prefix}w{i}", w), store.add(f"{prefix}b{i}", b), wmap))
    return layers


def _weight(w: Tensor, wmap) -> np.ndarray:
    """The weight a layer applies: the raw one, its softplus or its masked copy."""
    if wmap is None:
        return w.data
    if wmap is SOFTPLUS:
        return np.logaddexp(0.0, w.data)
    return w.data * wmap


def mlp_forward(layers: list[tuple], x) -> list[np.ndarray]:
    """Every layer's input, then the output; tanh between layers. Layers are
    (weight, bias, weight map) with the map None, SOFTPLUS or a 0/1 mask.
    The bias and tanh act in place on each layer's own matmul output."""
    x = np.asarray(x, dtype=np.float64)
    width = layers[0][0].data.shape[0]
    if x.ndim != 2 or x.shape[1] != width:
        raise DimensionError(f"input shape {x.shape} does not match first layer width {width}")
    hs = [x]
    for i, (w, b, wmap) in enumerate(layers):
        h = hs[-1] @ _weight(w, wmap)
        h += b.data
        if i < len(layers) - 1:
            np.tanh(h, out=h)
        hs.append(h)
    return hs


def mlp_backward(layers: list[tuple], hs: list[np.ndarray], g: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
    """Write into every weight's and bias's .grad the gradient of a loss
    whose gradient with respect to the output hs[-1] is g; return the
    gradient with respect to the input hs[0], or None without input_grad.
    Neither g nor hs is written to."""
    for i in reversed(range(len(layers))):
        w, b, wmap = layers[i]
        if i < len(layers) - 1:  # g is this pass's own matmul output here
            d = hs[i + 1] * hs[i + 1]
            g *= np.subtract(1.0, d, out=d)
        np.matmul(hs[i].T, g, out=w.grad)
        if wmap is SOFTPLUS:
            w.grad *= 1.0 / (1.0 + np.exp(-w.data))
        elif wmap is not None:
            w.grad *= wmap  # off-block weights stay where they are
        np.sum(g, axis=0, out=b.grad)
        if i == 0 and not input_grad:
            return None
        g = g @ _weight(w, wmap).T
    return g


def gaussian_kl(mu: np.ndarray, logvar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """logvar clamped to [LOGVAR_MIN, LOGVAR_MAX], and per entry the
    closed-form divergence 0.5 * (mu^2 + sigma^2 - 1 - log sigma^2) of that
    Gaussian from the standard normal. Training and the informative-neuron
    decision both take the divergence from here."""
    lv = np.clip(logvar, LOGVAR_MIN, LOGVAR_MAX)
    return lv, 0.5 * (((mu * mu + np.exp(lv)) - 1.0) - lv)


def gaussian_bottleneck(mu: np.ndarray, logvar: np.ndarray, rng: np.random.Generator):
    """The sample z = mu + sigma * eps, eps ~ N(0, 1), and the gaussian_kl
    divergence per entry (at the lower logvar clamp z collapses to mu).
    Returns (z, kl, cache) for gaussian_bottleneck_grad."""
    lv, kl = gaussian_kl(mu, logvar)
    var = np.exp(lv)
    noise = np.exp(lv * 0.5) * rng.standard_normal(mu.shape)
    inside = (logvar >= LOGVAR_MIN) & (logvar <= LOGVAR_MAX)
    return mu + noise, kl, (mu, var, noise, inside)


def gaussian_bottleneck_grad(cache, g_z: np.ndarray, g_kl) -> tuple[np.ndarray, np.ndarray]:
    """(d/dmu, d/dlogvar) from the gradient with respect to z and that with
    respect to every kl entry (an array, or one weight for all); zero where
    logvar was clamped."""
    mu, var, noise, inside = cache
    return g_z + g_kl * mu, (0.5 * (g_z * noise + g_kl * (var - 1.0))) * inside


# ---------------------------------------------------------------------------
# checkpoint format: little-endian float64 blob + JSON manifest

CHECKPOINT_FORMAT = "macrobottle-checkpoint-v1"
_MANIFEST_NAME = "manifest.json"
_BLOB_NAME = "params.bin"


def _manifest_digest(manifest: dict) -> str:
    """sha256 of the manifest's JSON without its own digest, keys in file order."""
    body = {k: v for k, v in manifest.items() if k != "manifest_sha256"}
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()


def save_checkpoint(dirpath: str | Path, arrays: dict[str, np.ndarray],
                    extra: dict | None = None) -> None:
    """Write named arrays back to back, in name order, as one little-endian
    float64 blob, then a JSON manifest recording names, shapes, byte offsets,
    the blob's sha256 and the sha256 of the manifest's own content."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    manifest = {"format": CHECKPOINT_FORMAT, "dtype": "<f8", "arrays": []}
    offset = 0
    digest = hashlib.sha256()
    with open(dirpath / _BLOB_NAME, "wb") as fh:
        for name in sorted(arrays):
            src = np.asarray(arrays[name], dtype=np.float64)
            a = np.ascontiguousarray(src, dtype="<f8")  # no copy of a float64 matrix
            fh.write(a)
            digest.update(a)
            manifest["arrays"].append({"name": name, "shape": list(src.shape), "offset": offset})
            offset += a.nbytes
    manifest["sha256"] = digest.hexdigest()
    if extra is not None:
        manifest["extra"] = extra
    manifest["manifest_sha256"] = _manifest_digest(manifest)
    with open(dirpath / _MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


def load_checkpoint(dirpath: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Named arrays and the extra dict of a checkpoint, each array read
    straight from the blob into the array returned and hashed as it is read.
    A manifest that is not JSON, lacks either sha256, does not match its own
    or lacks its array list raises DataError; so does an array shape numpy
    cannot hold, a blob whose size or layout differs from the manifest's (all
    checked before any array is allocated) or whose bytes do not match its
    sha256."""
    dirpath = Path(dirpath)
    manifest_path, blob_path = dirpath / _MANIFEST_NAME, dirpath / _BLOB_NAME
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as err:  # invalid JSON or invalid UTF-8
            raise DataError(f"{manifest_path}: invalid JSON: {err}") from err
    if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"unrecognized checkpoint format in {dirpath}")
    for key in ("sha256", "manifest_sha256"):
        if key not in manifest:
            raise DataError(f"{manifest_path} lacks {key}")
    if manifest["manifest_sha256"] != _manifest_digest(manifest):
        raise DataError(f"{manifest_path} does not match its own sha256")
    try:
        entries = [(e["name"], [*e["shape"]], e["offset"]) for e in manifest["arrays"]]
        if not all(type(name) is str and all(type(v) is int for v in (*shape, offset))
                   for name, shape, offset in entries):
            raise TypeError("a name that is not a string, or a dimension or offset not an int")
    except (KeyError, TypeError) as err:
        raise DataError(f"{manifest_path}: malformed array list "
                        f"({type(err).__name__}: {err})") from err
    end = 0  # each array starts where the one before it ends
    for name, shape, offset in entries:
        if min(shape, default=0) < 0 or offset != end:
            raise DataError(f"{manifest_path}: array {name!r} lies outside the blob, "
                            f"or not right after the array before it")
        try:  # a zero-stride view: np.empty's checks of the shape, with nothing allocated
            np.broadcast_to(np.float64(0.0), shape)
        except ValueError as err:  # an empty shape numpy cannot hold, e.g. [2**64, 0]
            raise DataError(f"{manifest_path}: array {name!r}: {err}") from err
        end += 8 * math.prod(shape)
    arrays = {}
    digest = hashlib.sha256()
    with open(blob_path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != end:
            raise DataError(f"{blob_path} holds {size} bytes, the manifest lists {end}")
        for name, shape, _ in entries:
            a = np.empty(shape, dtype="<f8")
            raw = a.reshape(-1).view(np.uint8)
            fh.readinto(raw)  # the digest covers these bytes, whatever a short read left
            digest.update(raw)
            arrays[name] = a
    if digest.hexdigest() != manifest["sha256"]:
        raise DataError(f"{blob_path} does not match the sha256 in its manifest")
    return arrays, manifest.get("extra", {})
