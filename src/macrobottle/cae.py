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

from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .datagen import DatasetPair
from .dataio import ColumnStats, JsonConfig
from .errors import DataError, DimensionError, NumericalError

TERM_NAMES = ("recon_x", "kl_x", "cross_x", "recon_y", "kl_y", "cross_y")
MIN_EVAL_ROWS = 2  # an explained variance needs rows that can vary
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)  # train, val, test
_SPLIT_SALT = 0x53504C49


@dataclass
class CaeConfig(JsonConfig):
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

    def __init__(self, name: str, input_dim: int, output_dim: int,
                 config: CaeConfig, store: ad.ParamStore, rng: np.random.Generator):
        self.input_dim = input_dim
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
                                   rng.uniform(-bound, bound, size=(d * h_last, output_dim))),
                         store.add(self.prefix + "dec.bias", np.zeros(output_dim)), None))
        store.add(self.prefix + "cross.a", 0.1 * rng.uniform(-1.0, 1.0, size=(d,)))
        store.add(self.prefix + "cross.b", np.zeros(d))

    def param(self, key: str) -> ad.Tensor:
        """This half's parameter `key`, e.g. "dec.bias"."""
        return self.store[self.prefix + key]

    def encode(self, inputs: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """The encoder's layer values (for encode_grad), the bottleneck means
        and their unclamped log-variances."""
        hs = ad.mlp_forward(self.enc, inputs)
        d = self.config.bottleneck_dim
        return hs, hs[-1][:, :d], hs[-1][:, d:]

    def encode_grad(self, hs: list[np.ndarray], g_out: np.ndarray) -> None:
        """Backpropagate g_out, the (B, 2d) gradient of encode's output hs[-1]."""
        ad.mlp_backward(self.enc, hs, g_out, input_grad=False)

    def cross_predict(self, z: np.ndarray) -> np.ndarray:
        return z * self.param("cross.a").data + self.param("cross.b").data


@dataclass
class CaeModel:
    net_x: CaeHalf
    net_y: CaeHalf
    config: CaeConfig
    store: ad.ParamStore  # every parameter of both halves
    stats: ColumnStats  # the units the model reads its inputs in

    def save(self, dirpath) -> None:
        arrays = self.store.arrays()
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
        try:
            norm = {f.name: arrays.pop(f"norm.{f.name}") for f in fields(ColumnStats)}
        except KeyError as err:
            raise DataError(f"checkpoint at {dirpath} lacks {err.args[0]}") from err
        for name, a in norm.items():
            dim = dims[0] if name.startswith("x_") else dims[1]
            if a.shape != (dim,):
                raise DataError(f"checkpoint shape mismatch for norm.{name}: "
                                f"{a.shape} vs {(dim,)}")
        model.stats = ColumnStats(**norm)
        model.store.load_arrays(arrays)
        return model


def build_cae(input_dim_x: int, input_dim_y: int, config: CaeConfig) -> CaeModel:
    """An untrained model whose statistics leave inputs as they are: subtracting
    0.0 and dividing by 1.0 are exact."""
    rng = np.random.default_rng(config.seed)
    store = ad.ParamStore()
    net_x = CaeHalf("x", input_dim_x, input_dim_y, config, store, rng)
    net_y = CaeHalf("y", input_dim_y, input_dim_x, config, store, rng)
    stats = ColumnStats(np.zeros(input_dim_x), np.ones(input_dim_x),
                        np.zeros(input_dim_y), np.ones(input_dim_y))
    return CaeModel(net_x, net_y, config, store, stats)


# ---------------------------------------------------------------------------
# losses


def loss_terms(model: CaeModel, batch_x: np.ndarray, batch_y: np.ndarray,
               rng: np.random.Generator) -> ad.Tensor:
    """The six unweighted terms in TERM_NAMES order, as one node. Cross
    targets are the other half's noiseless means, so gradients flow into both
    halves; the kl terms are per-neuron means (see the module docstring).
    The node's backward takes the (6,) term weights and runs one pass over
    both halves, writing each parameter's gradient once."""
    halves = (model.net_x, model.net_y)
    batches = (batch_x, batch_y)
    enc = [h.encode(b) for h, b in zip(halves, batches)]
    samples = [ad.gaussian_bottleneck(mu, lv, rng) for _, mu, lv in enc]
    values, saved = [], []
    for side, half in enumerate(halves):
        z, kl, _ = samples[side]
        dec = ad.mlp_forward(half.dec, z)
        recon = dec[-1] - batches[1 - side]
        cross = half.cross_predict(z) - enc[1 - side][1]
        values += [np.mean(recon * recon), kl.mean(), np.mean(cross * cross)]
        saved.append((dec, recon, cross))

    def backward_fn(g):
        w_recon, w_kl, w_cross = g.reshape(2, 3).T
        # each side's cross term pulls on the other side's means too
        g_cross = [(2.0 * w / c.size) * c for w, (_, _, c) in zip(w_cross, saved)]
        d = model.config.bottleneck_dim
        for side, (half, (hs, _, _)) in enumerate(zip(halves, enc)):
            (dec, recon, _), (z, kl, cache) = saved[side], samples[side]
            a, b = half.param("cross.a"), half.param("cross.b")
            np.sum(g_cross[side] * z, axis=0, out=a.grad)
            np.sum(g_cross[side], axis=0, out=b.grad)
            g_z = ad.mlp_backward(half.dec, dec, (2.0 * w_recon[side] / recon.size) * recon)
            g_z += g_cross[side] * a.data
            g_out = np.empty_like(hs[-1])
            g_mu, g_out[:, d:] = ad.gaussian_bottleneck_grad(cache, g_z, w_kl[side] / kl.size)
            np.subtract(g_mu, g_cross[1 - side], out=g_out[:, :d])
            half.encode_grad(hs, g_out)

    return ad.Tensor(values, _backward_fn=backward_fn)


def objective(t: Sequence[float] | np.ndarray, beta: float,
              gamma: float) -> tuple[float, np.ndarray]:
    """recon + beta * kl + gamma * cross over both halves from the six terms t
    in TERM_NAMES order, and its gradient with respect to them: the terms' weights."""
    return ((t[0] + t[3]) + (t[1] + t[4]) * beta + (t[2] + t[5]) * gamma,
            np.array([1.0, beta, gamma] * 2))


def combine(terms: ad.Tensor, beta: float, gamma: float) -> ad.Tensor:
    """The objective of the six-term node, as one node."""
    value, weights = objective(terms.data, beta, gamma)
    return ad.Tensor(value, (terms,), lambda g: terms._backward_fn(g * weights))


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
        _, mu, lv = half.encode(inputs)
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
    enc = encode_block(model, x, y)
    mu_x, mu_y, mask_x, mask_y = enc.mu_x, enc.mu_y, enc.mask_x, enc.mask_y
    kl_x, kl_y = mask_x.kl, mask_y.kl
    pred_y = ad.mlp_forward(model.net_x.dec, mu_x)[-1]
    pred_x = ad.mlp_forward(model.net_y.dec, mu_y)[-1]
    cy = model.net_x.cross_predict(mu_x)
    cx = model.net_y.cross_predict(mu_y)

    def masked_ev(target, pred, mask):
        if mask.count == 0:
            return None
        idx = mask.indices
        return explained_variance(target[:, idx], pred[:, idx])

    ev_y = explained_variance(y, pred_y)
    ev_x = explained_variance(x, pred_x)
    terms = [((pred_y - y) ** 2).mean(), kl_x.mean(), ((cy - mu_y) ** 2).mean(),
             ((pred_x - x) ** 2).mean(), kl_y.mean(), ((cx - mu_x) ** 2).mean()]
    metrics = {
        "ev_y_from_x": ev_y,
        "ev_x_from_y": ev_x,
        "cross_ev_y_from_x": masked_ev(mu_y, cy, mask_y),
        "cross_ev_x_from_y": masked_ev(mu_x, cx, mask_x),
        "informative_x": mask_x.count,
        "informative_y": mask_y.count,
        "kl_x": kl_x.tolist(),
        "kl_y": kl_y.tolist(),
        "val_loss": float(objective(terms, model.config.beta, model.config.gamma)[0]),
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


def split_rows(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The train, val and test rows of n rows in SPLIT_FRACTIONS, each
    ascending; a pure function of (n, seed). A model's seed picks the rows
    it trains, validates and reports on."""
    perm = np.random.default_rng([_SPLIT_SALT, seed]).permutation(n)
    n_train = int(np.floor(SPLIT_FRACTIONS[0] * n))
    n_val = int(np.floor(SPLIT_FRACTIONS[1] * n))
    return tuple(np.sort(rows) for rows in np.split(perm, [n_train, n_train + n_val]))


def _eval_rows(rows: np.ndarray, name: str, n: int) -> np.ndarray:
    """The rows of split `name` that an evaluation reads; fewer than
    MIN_EVAL_ROWS is a DataError, as an explained variance over them is
    undefined."""
    if len(rows) < MIN_EVAL_ROWS:
        raise DataError(f"the {name} split holds {len(rows)} row(s) of {n}; "
                        f"evaluating needs at least {MIN_EVAL_ROWS}")
    return rows


def test_report(model: CaeModel, x: np.ndarray,
                y: np.ndarray) -> tuple[dict, list[dict], Encoding]:
    """Report metrics and pair-table rows on the test rows of raw rows x, y
    (split by the model's seed, gathered and standardized with model.stats;
    x and y are left unchanged), plus the encoding behind them. Fewer than
    MIN_EVAL_ROWS test rows is a DataError. This is where `train`,
    `inspect` and `direction` choose the informative pairs. Training runs
    every configured epoch, so epochs_run is the model's config.epochs."""
    test = _eval_rows(split_rows(len(x), model.config.seed)[2], "test", len(x))
    gathered = (np.asarray(v[test], dtype=np.float64) for v in (x, y))
    final, rows, enc = evaluate_model(model, *model.stats.apply(*gathered))
    final.pop("val_loss")
    final["epochs_run"] = model.config.epochs
    return final, rows, enc


def train_cae(pair: DatasetPair, config: CaeConfig) -> tuple[CaeModel, TrainHistory]:
    """Minibatch Adam on the combined loss, on the rows split_rows gives the
    pair at config.seed.

    The train and val rows are gathered as float64 and standardized in
    place per column with train-split statistics (stored in the model; all
    downstream consumers see the standardized units); the pair itself is
    neither copied whole nor changed. Too few val rows to evaluate is a
    DataError before any epoch; the split fractions then leave at least 16
    train and 2 test rows. Per-epoch validation metrics are recorded with
    noiseless bottlenecks. Raises NumericalError with the offending term
    values if the loss goes non-finite, and from the Adam step if a
    gradient's square overflows.
    """
    train_idx, val_idx, _ = split_rows(pair.n, config.seed)
    _eval_rows(val_idx, "val", pair.n)

    x_train, y_train, x_val, y_val = (np.asarray(v[idx], dtype=np.float64)
                                      for idx in (train_idx, val_idx) for v in (pair.x, pair.y))
    # fitted before the model is built, so the std's temporary and the
    # model's buffers are never held together
    stats = ColumnStats.fit(x_train, y_train)
    stats.apply(x_train, y_train)
    stats.apply(x_val, y_val)
    model = build_cae(pair.x.shape[1], pair.y.shape[1], config)
    model.stats = stats
    rng = np.random.default_rng([config.seed, 0x7E41])
    history = TrainHistory()

    starts = range(0, len(train_idx), config.batch_size)
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_idx))
        sums = np.zeros(len(TERM_NAMES))
        for start in starts:
            sel = order[start:start + config.batch_size]
            terms = loss_terms(model, x_train[sel], y_train[sel], rng)
            total = combine(terms, config.beta, config.gamma)
            if not np.isfinite(total.item()):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}: "
                    + ", ".join(f"{k}={v:.4g}" for k, v in zip(TERM_NAMES, terms.data)))
            ad.backward(total)
            model.store.adam_step(config.learning_rate)
            sums += terms.data

        for k, v in zip(TERM_NAMES, (sums / len(starts)).tolist()):
            history.terms[k].append(v)
        history.val.append(evaluate_model(model, x_val, y_val)[0])

    return model, history

