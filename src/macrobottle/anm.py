"""Causal-direction inference for a macrovariable pair.

Detected macrovariables are only identified up to monotone transformations,
and residual independence is not invariant under such transformations. So
before the additive-noise-model test, each direction gets a transform search:
two tiny 1-D variational autoencoders (their encoder mean paths monotone
non-decreasing by construction) plus a scalar affine cross-map, trained to
minimize

    vae_p + vae_t + MSE(t', a*p' + b) / Var(t') + HSIC(p', t' - (a*p' + b))

After training, the kernel independence statistic of (predictor', residual)
is compared against its gamma threshold in both directions; a direction is
accepted when its residual passes, the other fails, and the disparity between
the two statistics is large enough.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import hsic
from .errors import DataError, NumericalError

X_CAUSES_Y = "x->y"
Y_CAUSES_X = "y->x"
NO_DIRECTION = "no-direction"
INCONCLUSIVE = "inconclusive"


@dataclass
class AnmConfig:
    hidden: int = 16
    beta_t: float = 0.01
    epochs: int = 450
    batch_size: int = 1000  # >= fit_points means full-batch steps
    learning_rate: float = 5e-3
    alpha: float = 0.05
    disparity_min: float = 3.0
    fit_points: int = 1000  # transform-search subsample
    eval_points: int = 8000  # held-out points for the independence test
    seed: int = 0

    def __post_init__(self):
        # fit_transform skips minibatches under 8 points, and the gamma
        # threshold needs at least 6 test points
        if min(self.batch_size, self.fit_points) < 8 or self.eval_points < 6:
            raise ValueError("batch_size and fit_points must be >= 8, eval_points >= 6")
        if self.epochs < 0 or self.hidden < 0:
            raise ValueError("epochs and hidden must be >= 0")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


def standardize_vector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    std = v.std()
    if std == 0.0:
        raise DataError("cannot standardize a constant vector")
    return (v - v.mean()) / std


class TransformNetPair:
    """Monotone transform VAEs for one direction (predictor -> target).

    Each side has a monotone mean path, a free log-variance path and a free
    decoder, all scalar maps through one hidden layer; the cross-map is the
    scalar affine prediction of the target's transform from the predictor's.
    """

    def __init__(self, config: AnmConfig, seed: int):
        self.config = config
        self.store = ad.ParamStore()
        widths = (1, config.hidden, 1) if config.hidden > 0 else (1, 1)
        self.mono_spec = ad.MlpSpec(widths, weight_constraint="nonnegative")
        self.free_spec = ad.MlpSpec(widths)
        rng = np.random.default_rng(seed)
        for side in ("p", "t"):
            # small output scale starts each transform near-affine, so
            # gradient flow reaches the mildest warp compatible with the
            # objective before any exotic one
            ad.init_mlp(self.mono_spec, self.store, rng, f"{side}.mono.",
                        out_scale=0.3)
            ad.init_mlp(self.free_spec, self.store, rng, f"{side}.lv.", out_scale=0.1)
            ad.init_mlp(self.free_spec, self.store, rng, f"{side}.dec.")
        self.store.add("cross.a", np.array([[1.0]]))
        self.store.add("cross.b", np.array([0.0]))

    def encode_mean(self, v, side: str) -> ad.Tensor:
        return ad.mlp_forward(self.mono_spec, self.store, v, f"{side}.mono.")

    def encode_logvar(self, v, side: str) -> ad.Tensor:
        out = ad.mlp_forward(self.free_spec, self.store, v, f"{side}.lv.")
        return ad.clip(out, ad.LOGVAR_MIN, ad.LOGVAR_MAX)

    def decode(self, z, side: str) -> ad.Tensor:
        return ad.mlp_forward(self.free_spec, self.store, z, f"{side}.dec.")

    def cross(self, p) -> ad.Tensor:
        return ad.add(ad.matmul(ad.constant(p), self.store["cross.a"]),
                      self.store["cross.b"])

    def transform_mean(self, v: np.ndarray, side: str) -> np.ndarray:
        return self.encode_mean(ad.Tensor(np.reshape(v, (-1, 1))), side).data[:, 0]


def fit_transform(x: np.ndarray, y: np.ndarray, direction: str,
                  config: AnmConfig | None = None, seed: int = 0) -> TransformNetPair:
    """Train the transform pair for one direction; for 'y_to_x' the roles
    are swapped so y becomes the predictor."""
    config = config or AnmConfig()
    if direction not in ("x_to_y", "y_to_x"):
        raise ValueError(f"unknown direction: {direction}")
    p = standardize_vector(x if direction == "x_to_y" else y)[:, None]
    t = standardize_vector(y if direction == "x_to_y" else x)[:, None]
    if p.shape != t.shape:
        raise DataError(f"length mismatch: {p.shape[0]} vs {t.shape[0]}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        raise DataError("transform inputs must be finite")

    net = TransformNetPair(config, seed)
    rng = np.random.default_rng([seed, 0xA7A])
    n = p.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            sel = order[start:start + config.batch_size]
            if len(sel) < 8:  # hsic_loss needs a real minibatch
                continue
            bp, bt = p[sel], t[sel]
            loss = _transform_loss(net, bp, bt, config, rng)
            if not np.isfinite(loss.item()):
                raise NumericalError(
                    f"transform training diverged at epoch {epoch} "
                    f"(direction {direction}, seed {seed})")
            net.store.zero_grad()
            ad.backward(loss)
            net.store.adam_step(config.learning_rate)
    return net


def _transform_loss(net: TransformNetPair, bp: np.ndarray, bt: np.ndarray,
                    config: AnmConfig, rng: np.random.Generator) -> ad.Tensor:
    mu_p = net.encode_mean(ad.Tensor(bp), "p")
    lv_p = net.encode_logvar(ad.Tensor(bp), "p")
    mu_t = net.encode_mean(ad.Tensor(bt), "t")
    lv_t = net.encode_logvar(ad.Tensor(bt), "t")
    z_p = ad.gaussian_reparam(mu_p, lv_p, rng)
    z_t = ad.gaussian_reparam(mu_t, lv_t, rng)

    # reconstruction normalized by (standardized) input variance, ~1
    vae_p = ad.add(ad.mse(net.decode(z_p, "p"), ad.constant(bp)),
                   ad.mul(ad.kl_standard_normal(mu_p, lv_p), config.beta_t))
    vae_t = ad.add(ad.mse(net.decode(z_t, "t"), ad.constant(bt)),
                   ad.mul(ad.kl_standard_normal(mu_t, lv_t), config.beta_t))

    var_t = max(float(mu_t.data.var()), 1e-3)  # constant per batch
    fit = ad.mul(ad.mse(net.cross(z_p), mu_t), 1.0 / var_t)

    # detached per-batch standardization keeps the independence term's
    # kernel geometry stationary: shrinking or rescaling a transform can
    # not lower the statistic, only reshaping the dependence can
    res = ad.sub(mu_t, net.cross(mu_p))
    u = ad.mul(ad.sub(mu_p, float(mu_p.data.mean())),
               1.0 / max(float(mu_p.data.std()), 1e-6))
    r = ad.mul(ad.sub(res, float(res.data.mean())),
               1.0 / max(float(res.data.std()), 1e-6))
    dep = hsic.hsic_loss(u, r)
    return ad.add(ad.add(vae_p, vae_t), ad.add(fit, dep))


def residuals(net: TransformNetPair, x: np.ndarray, y: np.ndarray,
              direction: str = "x_to_y") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noiseless transforms (predictor', target') and the residual
    target' - (a * predictor' + b)."""
    p = standardize_vector(x if direction == "x_to_y" else y)
    t = standardize_vector(y if direction == "x_to_y" else x)
    p_prime = net.transform_mean(p, "p")
    t_prime = net.transform_mean(t, "t")
    a = float(net.store["cross.a"].data[0, 0])
    b = float(net.store["cross.b"].data[0])
    return p_prime, t_prime, t_prime - (a * p_prime + b)


def _ols_coeffs(p: np.ndarray, t: np.ndarray) -> tuple[float, float]:
    slope = float(np.cov(p, t, bias=True)[0, 1] / p.var())
    return slope, float(t.mean() - slope * p.mean())


@dataclass
class DirectionScores:
    statistic: float
    threshold: float

    @property
    def accepted(self) -> bool:
        """Independence (and thus the noise model) accepted."""
        return self.statistic < self.threshold


@dataclass
class AnmVerdict:
    decision: str
    raw_fwd: DirectionScores
    raw_rev: DirectionScores
    fwd: DirectionScores
    rev: DirectionScores
    disparity: float
    n: int
    seeds: tuple[int, int]
    pair_index: int | None = None
    diagnostics: str | None = None
    artifacts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "pair_index": self.pair_index,
            "decision": self.decision,
            "raw_fwd": vars(self.raw_fwd),
            "raw_rev": vars(self.raw_rev),
            "fwd": vars(self.fwd),
            "rev": vars(self.rev),
            "disparity": self.disparity,
            "n": self.n,
            "seeds": list(self.seeds),
            "diagnostics": self.diagnostics,
        }


def _decide(fwd: DirectionScores, rev: DirectionScores, disparity_min: float) -> str:
    if fwd.accepted and not rev.accepted and rev.statistic / fwd.statistic >= disparity_min:
        return X_CAUSES_Y
    if rev.accepted and not fwd.accepted and fwd.statistic / rev.statistic >= disparity_min:
        return Y_CAUSES_X
    if not fwd.accepted and not rev.accepted:
        return NO_DIRECTION
    return INCONCLUSIVE


def direction_verdict(x: np.ndarray, y: np.ndarray,
                      config: AnmConfig | None = None,
                      pair_index: int | None = None,
                      keep_artifacts: bool = False) -> AnmVerdict:
    """Fit the transform search in both directions with fresh seeds and
    apply the accept/reject decision rule.

    Transforms are fitted on one subsample and the independence statistics
    evaluated on a disjoint held-out subsample, so a transform can only pass
    the test by generalizing. A directed verdict needs the residual
    independence accepted in exactly one direction plus a disparity of at
    least config.disparity_min between the two statistics; both rejected
    means no direction (confounding); any other pattern, or a failed fit,
    is inconclusive.
    """
    config = config or AnmConfig()
    x = standardize_vector(x)
    y = standardize_vector(y)
    if x.size != y.size:
        raise DataError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 24:
        raise DataError("direction_verdict needs at least 24 samples")
    perm = np.random.default_rng([config.seed, 0x5EED]).permutation(x.size)
    n_fit = min(config.fit_points, x.size // 2)
    fit_idx = perm[:n_fit]
    eval_idx = perm[n_fit:n_fit + config.eval_points]
    xf, yf = x[fit_idx], y[fit_idx]
    xe, ye = x[eval_idx], y[eval_idx]
    n = xe.size

    def scores(p, res):
        r = hsic.hsic_statistic(p, res, alpha=config.alpha)
        return DirectionScores(r.statistic, r.threshold)

    # pre-transform baseline: affine least squares, same protocol
    slope_xy, icept_xy = _ols_coeffs(xf, yf)
    slope_yx, icept_yx = _ols_coeffs(yf, xf)
    pred_xy = slope_xy * xe + icept_xy
    pred_yx = slope_yx * ye + icept_yx
    raw_fwd = scores(xe, ye - pred_xy)
    raw_rev = scores(ye, xe - pred_yx)

    seeds = (config.seed * 2 + 1, config.seed * 2 + 2)
    artifacts: dict = {}
    if keep_artifacts:
        artifacts["fwd_raw"] = {"value": ye, "prediction": pred_xy,
                                "counterpart": xe, "residual": ye - pred_xy}
        artifacts["rev_raw"] = {"value": xe, "prediction": pred_yx,
                                "counterpart": ye, "residual": xe - pred_yx}

    try:
        net_fwd = fit_transform(xf, yf, "x_to_y", config, seeds[0])
        net_rev = fit_transform(xf, yf, "y_to_x", config, seeds[1])
    except NumericalError as err:
        missing = DirectionScores(float("nan"), float("nan"))
        return AnmVerdict(decision=INCONCLUSIVE, raw_fwd=raw_fwd, raw_rev=raw_rev,
                          fwd=missing, rev=missing, disparity=float("nan"), n=n,
                          seeds=seeds, pair_index=pair_index, diagnostics=str(err))

    xp, yp, res_f = residuals(net_fwd, xe, ye, "x_to_y")
    yq, xq, res_r = residuals(net_rev, xe, ye, "y_to_x")
    fwd = scores(xp, res_f)
    rev = scores(yq, res_r)
    pair = (fwd.statistic, rev.statistic)
    disparity = max(pair) / max(min(pair), 1e-300)

    if keep_artifacts:
        a = float(net_fwd.store["cross.a"].data[0, 0])
        b = float(net_fwd.store["cross.b"].data[0])
        artifacts["fwd_transformed"] = {"value": yp, "prediction": a * xp + b,
                                        "counterpart": xp, "residual": res_f}
        a = float(net_rev.store["cross.a"].data[0, 0])
        b = float(net_rev.store["cross.b"].data[0])
        artifacts["rev_transformed"] = {"value": xq, "prediction": a * yq + b,
                                        "counterpart": yq, "residual": res_r}

    return AnmVerdict(decision=_decide(fwd, rev, config.disparity_min),
                      raw_fwd=raw_fwd, raw_rev=raw_rev, fwd=fwd, rev=rev,
                      disparity=disparity, n=n, seeds=seeds,
                      pair_index=pair_index, artifacts=artifacts)
