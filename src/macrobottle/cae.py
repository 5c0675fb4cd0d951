"""The coupled-bottleneck model and its training loop.

Two symmetric halves are trained as one network. Each half encodes its own
dataset into a noisy bottleneck, decodes the bottleneck into a prediction of
the *other* dataset through an additive decoder (one subnet per bottleneck
neuron, summed, plus a global bias), and predicts the other half's bottleneck
through a diagonal affine cross-map. The combined objective is the sum of the
six resulting terms:

    recon_x + recon_y + beta * (kl_x + kl_y) + gamma * (cross_x + cross_y)

Reconstruction and cross distances are dimension-pooled MSE on per-column
standardized data (train_cae standardizes internally and the model carries
the statistics), so the reconstruction term reads as "unexplained variance
fraction". The divergence term entering the combined objective is the
closed-form divergence from the standard normal averaged per neuron, so
beta trades off variance fractions against mean per-neuron information
regardless of layer widths; summing over neurons against an unnormalized
MSE instead lets beta = 1 crush the bottleneck outright. During training
the decoder and cross-map consume noisy samples; every evaluation uses the
noiseless encoder means.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .datagen import TRAIN, VAL, DatasetPair
from .dataio import ColumnStats, JsonConfig, standardize
from .errors import DataError, DimensionError, NumericalError

TERM_NAMES = ("recon_x", "kl_x", "cross_x", "recon_y", "kl_y", "cross_y")


@dataclass
class CaeConfig(JsonConfig):
    # old checkpoints and config files carry these
    REMOVED_FIELDS = {"training_mode": "combined", "cross_map": "diagonal",
                      "cross_hidden": [16], "early_stop_patience": 0,
                      "early_stop_min_delta": 1e-5}
    bottleneck_dim: int = 4
    encoder_hidden: tuple[int, ...] = (64,)
    decoder_hidden_per_variable: tuple[int, ...] = (32,)
    beta: float = 0.01
    gamma: float = 1.0
    epochs: int = 1500
    batch_size: int = 128
    learning_rate: float = 1e-3
    seed: int = 0
    kl_threshold: float = 0.05

    def __post_init__(self):
        self.encoder_hidden = tuple(self.encoder_hidden)
        self.decoder_hidden_per_variable = tuple(self.decoder_hidden_per_variable)
        self.check_numbers({"bottleneck_dim": 1, "encoder_hidden": 1,
                            "decoder_hidden_per_variable": 1, "epochs": 0,
                            "batch_size": 1, "seed": 0})
        if self.beta < 0 or self.gamma < 0:
            raise ValueError("beta and gamma must be >= 0")
        if not (self.learning_rate > 0 and self.kl_threshold > 0):
            raise ValueError("learning_rate and kl_threshold must be > 0")

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("encoder_hidden", "decoder_hidden_per_variable"):
            d[key] = list(d[key])
        return d


def _block_mask(d: int, in_per: int, out_per: int) -> np.ndarray:
    m = np.zeros((d * in_per, d * out_per))
    for i in range(d):
        m[i * in_per:(i + 1) * in_per, i * out_per:(i + 1) * out_per] = 1.0
    return m


class CaeHalf:
    """One half: encoder to (mu, logvar), additive decoder, cross-map.

    The decoder's hidden layers carry block-diagonal masks so that hidden
    unit block i sees only bottleneck neuron i; the unmasked output layer
    then sums the per-neuron blocks, which *is* the additive decomposition.
    """

    def __init__(self, name: str, input_dim: int, target_dim: int,
                 config: CaeConfig, store: ad.ParamStore, rng: np.random.Generator):
        self.input_dim = input_dim
        self.target_dim = target_dim
        self.config = config
        self.store = store  # shared by both halves; names carry a "<name>." prefix
        self.prefix = f"{name}."
        d = config.bottleneck_dim

        self.enc = ad.init_mlp(store, rng, self.prefix + "enc.",
                               (input_dim, *config.encoder_hidden, 2 * d))

        widths_per = (1, *config.decoder_hidden_per_variable)
        self.dec = []
        for i in range(len(widths_per) - 1):
            in_per, out_per = widths_per[i], widths_per[i + 1]
            mask = _block_mask(d, in_per, out_per)
            bound = 1.0 / np.sqrt(in_per)
            w = rng.uniform(-bound, bound, size=mask.shape) * mask
            b = rng.uniform(-bound, bound, size=mask.shape[1])
            self.dec.append((store.add(f"{self.prefix}dec.w{i}", w),
                             store.add(f"{self.prefix}dec.b{i}", b), mask))
        h_last = widths_per[-1]
        bound = 1.0 / np.sqrt(d * h_last)
        self.dec.append((store.add(self.prefix + "dec.w_out",
                                   rng.uniform(-bound, bound, size=(d * h_last, target_dim))),
                         store.add(self.prefix + "dec.bias", np.zeros(target_dim)), None))
        store.add(self.prefix + "cross.a", 0.1 * rng.uniform(-1.0, 1.0, size=(d,)))
        store.add(self.prefix + "cross.b", np.zeros(d))

    def param(self, key: str) -> ad.Tensor:
        """This half's parameter `key`, e.g. "dec.bias"."""
        return self.store[self.prefix + key]

    def encode_np(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bottleneck means and clamped log-variances."""
        out = ad.mlp_forward(self.enc, inputs)[-1]
        d = self.config.bottleneck_dim
        return out[:, :d], np.clip(out[:, d:], ad.LOGVAR_MIN, ad.LOGVAR_MAX)

    def encode_mean(self, inputs: np.ndarray) -> np.ndarray:
        return self.encode_np(inputs)[0]

    def decode_np(self, z: np.ndarray) -> np.ndarray:
        return ad.mlp_forward(self.dec, z)[-1]

    def cross_predict_np(self, z: np.ndarray) -> np.ndarray:
        return z * self.param("cross.a").data + self.param("cross.b").data


@dataclass
class CaeModel:
    net_x: CaeHalf
    net_y: CaeHalf
    config: CaeConfig
    store: ad.ParamStore  # every parameter of both halves
    stats: ColumnStats | None = None  # training standardization; None if untrained

    def save(self, dirpath) -> None:
        arrays = self.store.arrays()
        if self.stats is not None:
            arrays.update({f"norm.{name}": a for name, a in vars(self.stats).items()})
        extra = {
            "kind": "cae",
            "config": self.config.to_dict(),
            "input_dim_x": self.net_x.input_dim,
            "input_dim_y": self.net_y.input_dim,
        }
        ad.save_checkpoint(dirpath, arrays, extra)

    @classmethod
    def load(cls, dirpath) -> "CaeModel":
        arrays, extra = ad.load_checkpoint(dirpath)
        if not isinstance(extra, dict) or extra.get("kind") != "cae":
            raise DataError(f"checkpoint at {dirpath} is not a CAE checkpoint")
        config, dims = extra.get("config"), (extra.get("input_dim_x"), extra.get("input_dim_y"))
        if not isinstance(config, dict) or not all(isinstance(v, int) and v > 0 for v in dims):
            raise DataError(f"checkpoint manifest at {dirpath} needs an object extra.config and "
                            f"positive integers extra.input_dim_x and extra.input_dim_y")
        model = build_cae(*dims, CaeConfig.from_dict(config))
        norm = {n[5:]: arrays.pop(n) for n in list(arrays) if n.startswith("norm.")}
        model.store.load_arrays(arrays)
        if norm:
            try:
                model.stats = ColumnStats(norm["x_mean"], norm["x_std"],
                                          norm["y_mean"], norm["y_std"])
            except KeyError as err:
                raise DataError(f"checkpoint at {dirpath} lacks norm.{err.args[0]}") from err
        return model


def build_cae(input_dim_x: int, input_dim_y: int, config: CaeConfig) -> CaeModel:
    rng = np.random.default_rng(config.seed)
    store = ad.ParamStore()
    net_x = CaeHalf("x", input_dim_x, input_dim_y, config, store, rng)
    net_y = CaeHalf("y", input_dim_y, input_dim_x, config, store, rng)
    return CaeModel(net_x, net_y, config, store)


# ---------------------------------------------------------------------------
# losses


def loss_terms(model: CaeModel, batch_x: np.ndarray, batch_y: np.ndarray,
               rng: np.random.Generator) -> ad.Tensor:
    """The six unweighted terms in TERM_NAMES order, as one node. Cross
    targets are the other half's noiseless means, so gradients flow into both
    halves; the kl terms are per-neuron means (see the module docstring).
    The node's backward takes the (6,) term weights and runs one pass over
    both halves."""
    halves = (model.net_x, model.net_y)
    batches = (batch_x, batch_y)
    d = model.config.bottleneck_dim
    enc = [ad.mlp_forward(h.enc, b) for h, b in zip(halves, batches)]
    mus = [hs[-1][:, :d] for hs in enc]
    samples = [ad.gaussian_bottleneck(hs[-1][:, :d], hs[-1][:, d:], rng) for hs in enc]
    values, saved = [], []
    for side, half in enumerate(halves):
        z, kl, _ = samples[side]
        dec = ad.mlp_forward(half.dec, z)
        recon = dec[-1] - batches[1 - side]
        cross = z * half.param("cross.a").data + half.param("cross.b").data - mus[1 - side]
        values += [np.mean(recon * recon), kl.mean(), np.mean(cross * cross)]
        saved.append((dec, recon, cross))

    def backward_fn(g):
        g_mu = [np.zeros_like(mu) for mu in mus]
        g_lv = []
        for side, half in enumerate(halves):
            (dec, recon, cross), (z, kl, cache) = saved[side], samples[side]
            w_recon, w_kl, w_cross = g[3 * side:3 * side + 3]
            g_cross = (2.0 * w_cross / cross.size) * cross
            a, b = half.param("cross.a"), half.param("cross.b")
            a.grad += (g_cross * z).sum(axis=0)
            b.grad += g_cross.sum(axis=0)
            g_mu[1 - side] -= g_cross
            g_z = ad.mlp_backward(half.dec, dec, (2.0 * w_recon / recon.size) * recon)
            g_mu_side, g_lv_side = ad.gaussian_bottleneck_grad(
                cache, g_z + g_cross * a.data, w_kl / kl.size)
            g_mu[side] += g_mu_side
            g_lv.append(g_lv_side)
        for side, half in enumerate(halves):
            ad.mlp_backward(half.enc, enc[side], np.hstack([g_mu[side], g_lv[side]]))

    return ad.Tensor(values, _backward_fn=backward_fn)


def combine(terms: ad.Tensor, beta: float, gamma: float) -> ad.Tensor:
    """recon + beta * kl + gamma * cross over both halves, as one node."""
    t = terms.data
    weights = np.array([1.0, beta, gamma] * 2)
    return ad.Tensor((t[0] + t[3]) + (t[1] + t[4]) * beta + (t[2] + t[5]) * gamma,
                     (terms,), lambda g: terms._backward_fn(g * weights))


# ---------------------------------------------------------------------------
# evaluation


def explained_variance(truth: np.ndarray, pred: np.ndarray) -> float:
    """EV = 1 - SSE / SS_total, pooled over all entries.

    SS_total centers each column at its own mean, so a column-mean predictor
    scores exactly 0 and worse-than-mean predictions go negative.
    """
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if truth.shape != pred.shape:
        raise DimensionError(f"shape mismatch: {truth.shape} vs {pred.shape}")
    if truth.ndim == 1:
        truth = truth[:, None]
        pred = pred[:, None]
    ss_total = ((truth - truth.mean(axis=0)) ** 2).sum()
    if ss_total == 0.0:
        raise NumericalError("explained variance undefined: truth has zero variance")
    sse = ((truth - pred) ** 2).sum()
    return float(1.0 - sse / ss_total)


@dataclass
class InformativeMask:
    """Which bottleneck neurons carry sample-dependent information: those
    whose mean divergence from the prior, `kl`, exceeds the threshold."""

    kl: np.ndarray
    flags: np.ndarray

    @property
    def count(self) -> int:
        return int(self.flags.sum())

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.flags)


@dataclass
class Encoding:
    """Noiseless bottleneck means of one block of (x, y) rows and, per side,
    which neurons are informative on that block."""

    mu_x: np.ndarray
    mu_y: np.ndarray
    mask_x: InformativeMask
    mask_y: InformativeMask

    @property
    def paired(self) -> np.ndarray:
        """Indices informative on both sides: the macrovariable pairs."""
        return np.flatnonzero(self.mask_x.flags & self.mask_y.flags)


def encode_block(model: CaeModel, x: np.ndarray, y: np.ndarray) -> Encoding:
    """One noiseless encode of a block of (x, y) rows in the model's units,
    with each side's informative neurons at `config.kl_threshold`. Every
    choice of macrovariable pairs goes through here."""
    mus, masks = [], []
    for half, inputs in ((model.net_x, x), (model.net_y, y)):
        mu, lv = half.encode_np(inputs)
        kl = ad.gaussian_kl(mu, lv)[1].mean(axis=0)
        mus.append(mu)
        masks.append(InformativeMask(kl, kl > model.config.kl_threshold))
    return Encoding(*mus, *masks)


def evaluate_model(model: CaeModel, x: np.ndarray,
                   y: np.ndarray) -> tuple[dict, list[dict], Encoding]:
    """Noiseless metrics on one block of rows, the pair-table rows and the
    encoding behind them; deterministic for fixed inputs.

    Pairs are index-aligned by the diagonal cross-map: neuron i of one half
    predicts neuron i of the other. The rows list each pair with its
    cross-map and cross-EVs, then the neurons informative on one side only.
    """
    cfg = model.config
    enc = encode_block(model, x, y)
    mu_x, mu_y, mask_x, mask_y = enc.mu_x, enc.mu_y, enc.mask_x, enc.mask_y
    kl_x, kl_y = mask_x.kl, mask_y.kl
    pred_y = model.net_x.decode_np(mu_x)
    pred_x = model.net_y.decode_np(mu_y)
    cy = model.net_x.cross_predict_np(mu_x)
    cx = model.net_y.cross_predict_np(mu_y)

    def masked_ev(target, pred, mask):
        if mask.count == 0:
            return None
        idx = mask.indices
        return explained_variance(target[:, idx], pred[:, idx])

    ev_y = explained_variance(y, pred_y)
    ev_x = explained_variance(x, pred_x)
    val_loss = (float(((y - pred_y) ** 2).mean() + ((x - pred_x) ** 2).mean())
                + cfg.beta * float(kl_x.mean() + kl_y.mean())
                + cfg.gamma * float(((mu_y - cy) ** 2).mean() + ((mu_x - cx) ** 2).mean()))
    metrics = {
        "ev_y_from_x": ev_y,
        "ev_x_from_y": ev_x,
        "cross_ev_y_from_x": masked_ev(mu_y, cy, mask_y),
        "cross_ev_x_from_y": masked_ev(mu_x, cx, mask_x),
        "informative_x": mask_x.count,
        "informative_y": mask_y.count,
        "kl_x": kl_x.tolist(),
        "kl_y": kl_y.tolist(),
        "val_loss": val_loss,
    }
    a_x, b_x = model.net_x.param("cross.a").data, model.net_x.param("cross.b").data
    a_y, b_y = model.net_y.param("cross.a").data, model.net_y.param("cross.b").data
    paired = enc.paired
    rows = [{"index": int(i),
             "a_x_to_y": float(a_x[i]), "b_x_to_y": float(b_x[i]),
             "a_y_to_x": float(a_y[i]), "b_y_to_x": float(b_y[i]),
             "cross_ev_y_from_x": explained_variance(mu_y[:, i], cy[:, i]),
             "cross_ev_x_from_y": explained_variance(mu_x[:, i], cx[:, i])}
            for i in paired]
    rows += [{"index": int(i), "unpaired_side": side}
             for side, mask in (("x", mask_x), ("y", mask_y))
             for i in mask.indices if i not in paired]
    return metrics, rows, enc


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainHistory:
    terms: dict[str, list[float]] = field(default_factory=lambda: {n: [] for n in TERM_NAMES})
    val: list[dict] = field(default_factory=list)


def train_cae(pair: DatasetPair, config: CaeConfig) -> tuple[CaeModel, TrainHistory]:
    """Minibatch Adam on the combined loss.

    Inputs are standardized per column with train-split statistics (stored
    in the model; all downstream consumers see the standardized units).
    Per-epoch validation metrics are recorded with noiseless bottlenecks.
    Raises NumericalError with the offending term values if the loss goes
    non-finite, and from the Adam step if a gradient's square overflows.
    """
    train_idx = pair.rows(TRAIN)
    val_idx = pair.rows(VAL)
    if len(train_idx) == 0 or len(val_idx) == 0:
        raise DataError("training requires non-empty train and val splits")

    model = build_cae(pair.x.shape[1], pair.y.shape[1], config)
    pair, model.stats = standardize(pair)
    x_train, y_train = pair.x[train_idx], pair.y[train_idx]
    x_val, y_val = pair.x[val_idx], pair.y[val_idx]
    rng = np.random.default_rng([config.seed, 0x7E41])
    history = TrainHistory()

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_idx))
        sums = {name: 0.0 for name in TERM_NAMES}
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            sel = order[start:start + config.batch_size]
            terms = loss_terms(model, x_train[sel], y_train[sel], rng)
            total = combine(terms, config.beta, config.gamma)
            term_values = dict(zip(TERM_NAMES, terms.data.tolist()))
            if not np.isfinite(total.item()):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}: "
                    + ", ".join(f"{k}={v:.4g}" for k, v in term_values.items()))
            model.store.zero_grad()
            ad.backward(total)
            model.store.adam_step(config.learning_rate)
            for k, v in term_values.items():
                sums[k] += v
            n_batches += 1

        for k in TERM_NAMES:
            history.terms[k].append(sums[k] / n_batches)
        history.val.append(evaluate_model(model, x_val, y_val)[0])

    return model, history

