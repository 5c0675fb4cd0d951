"""Causal-direction inference for a macrovariable pair.

Detected macrovariables are only identified up to monotone transformations,
and residual independence is not invariant under such transformations. So
before the additive-noise-model test, each direction gets a transform search
in the post-nonlinear form (Zhang & Hyvarinen 2009) by dependence
minimization (Mooij et al. 2009): two tiny monotone non-decreasing 1-D maps,
p' of the predictor and t' of the target, plus a scalar affine cross-map,
trained to minimize

    MSE(t', a*p' + b) / Var(t') + HSIC(p', t' - (a*p' + b))

After training, the kernel independence statistic of (predictor', residual)
is compared against its gamma threshold in both directions; a direction is
accepted when its residual passes, the other fails, and the disparity between
the two statistics is large enough.

direction_verdict maps each variable once, by the fit points' mean and std,
and hands each direction's predictor and target in that map to fit_transform
and residuals, which read them as given: the transforms are fitted and tested
in the same units.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import hsic
from .dataio import JsonConfig
from .errors import DataError, DegenerateDataError, NumericalError

X_CAUSES_Y = "x->y"
Y_CAUSES_X = "y->x"
NO_DIRECTION = "no-direction"
INCONCLUSIVE = "inconclusive"


@dataclass
class AnmConfig(JsonConfig):
    hidden: int = 16
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
        self.check_numbers({"hidden": 0, "epochs": 0, "batch_size": 8, "fit_points": 8,
                            "eval_points": 6, "seed": 0})
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (self.learning_rate > 0 and self.disparity_min > 0):
            raise ValueError("learning_rate and disparity_min must be > 0")


def standardize_vector(v: np.ndarray, rows: np.ndarray | slice = slice(None)) -> np.ndarray:
    """v centred and scaled by the mean and std of v[rows] (all of v by
    default); a constant v[rows] raises DataError."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    std = v[rows].std()
    if std == 0.0:
        raise DataError("cannot standardize a constant vector")
    return (v - v[rows].mean()) / std


class TransformNetPair:
    """Monotone transforms for one direction, predictor -> target.

    Each side is a monotone non-decreasing scalar map through one hidden
    layer; the cross-map is the scalar affine prediction of the target's
    transform from the predictor's.
    """

    def __init__(self, config: AnmConfig, seed: int):
        self.store = ad.ParamStore()
        widths = (1, config.hidden, 1) if config.hidden > 0 else (1, 1)
        rng = np.random.default_rng(seed)
        # small output scale starts each transform near-affine, so gradient
        # flow reaches the mildest warp compatible with the objective before
        # any exotic one
        self.layers = {side: ad.init_mlp(self.store, rng, f"{side}.mono.", widths,
                                         ad.SOFTPLUS, 0.3) for side in ("p", "t")}
        self.store.add("cross.a", np.array([[1.0]]))
        self.store.add("cross.b", np.array([0.0]))

    def transform(self, v: np.ndarray, side: str) -> list[np.ndarray]:
        """Layer values of side "p" or "t"'s monotone map at the column v."""
        return ad.mlp_forward(self.layers[side], v)

    def residual(self, p_prime: np.ndarray, t_prime: np.ndarray) -> np.ndarray:
        """The column t' - (a * p' + b) of the cross-map's errors; a non-finite
        one (a diverged fit) raises NumericalError before HSIC reads it."""
        res = t_prime - (p_prime @ self.store["cross.a"].data + self.store["cross.b"].data)
        if not np.isfinite(res).all():
            raise NumericalError("non-finite transforms or residual")
        return res


def fit_transform(p: np.ndarray, t: np.ndarray, config: AnmConfig | None = None,
                  seed: int = 0) -> TransformNetPair:
    """Train the transform pair of predictor p and target t, read as given:
    the pair learns its maps in the units it is handed, which `residuals`
    must then be handed too. A diverging fit raises NumericalError without
    numpy's overflow warnings."""
    config = config or AnmConfig()
    p, t = (np.asarray(v, dtype=np.float64).reshape(-1, 1) for v in (p, t))
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
            with np.errstate(over="ignore", invalid="ignore"):  # a diverging fit raises
                loss = _transform_loss(net, bp, bt)
                if not np.isfinite(loss.item()):
                    raise NumericalError(
                        f"transform training diverged at epoch {epoch} (seed {seed})")
                net.store.zero_grad()
                ad.backward(loss)
                net.store.adam_step(config.learning_rate)
    return net


def _transform_loss(net: TransformNetPair, bp: np.ndarray, bt: np.ndarray) -> ad.Tensor:
    """The objective in the module docstring as one node with a hand-written
    backward; its fit term and its dependence term read the same residual.
    hsic_loss's median-heuristic bandwidths, held constant, make its value
    and gradients invariant to a positive affine map of p' or the residual,
    so shrinking or shifting a transform cannot lower the dependence term;
    only reshaping the dependence can. The exception is the bandwidth-1
    fallback, for an input where more than half the pairs tie."""
    n = bp.shape[0]
    a, b = net.store["cross.a"], net.store["cross.b"]
    mono = {"p": net.transform(bp, "p"), "t": net.transform(bt, "t")}
    p_prime, t_prime = mono["p"][-1], mono["t"][-1]
    var_t = max(float(t_prime.var()), 1e-3)  # constant per batch
    res = net.residual(p_prime, t_prime)
    dep, g_p, g_r = hsic.hsic_loss(p_prime, res)
    value = np.mean(res * res) / var_t + dep

    def backward_fn(g):
        g_res = (2.0 * g / (n * var_t)) * res + g * g_r
        # a residual's gradient is minus that of its cross-map prediction
        a.grad -= p_prime.T @ g_res
        b.grad -= g_res.sum(axis=0)
        g_prime = {"p": g * g_p - g_res @ a.data.T, "t": g_res}
        for s in mono:
            ad.mlp_backward(net.layers[s], mono[s], g_prime[s], input_grad=False)

    return ad.Tensor(value, _backward_fn=backward_fn)


def residuals(net: TransformNetPair, p: np.ndarray,
              t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The transforms (p', t') of predictor p and target t, read as given,
    and the residual t' - (a * p' + b), each row from its own inputs alone;
    non-finite ones raise NumericalError without numpy's overflow warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        p_prime, t_prime = (net.transform(np.reshape(v, (-1, 1)), side)[-1]
                            for v, side in ((p, "p"), (t, "t")))
        return p_prime[:, 0], t_prime[:, 0], net.residual(p_prime, t_prime)[:, 0]


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
    # "<test>_<column>" -> held-out values, in the order the tests ran
    scatter: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field but the scatter, JSON-shaped."""
        doc = asdict(replace(self, scatter={}))
        del doc["scatter"]
        doc["seeds"] = list(self.seeds)
        return doc


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
                      pair_index: int | None = None) -> AnmVerdict:
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
    x, y = (np.asarray(v, dtype=np.float64).reshape(-1) for v in (x, y))
    if x.size != y.size:
        raise DataError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 24:
        raise DataError("direction_verdict needs at least 24 samples")
    perm = np.random.default_rng([config.seed, 0x5EED]).permutation(x.size)
    n_fit = min(config.fit_points, x.size // 2)
    fit_idx = perm[:n_fit]
    eval_idx = perm[n_fit:n_fit + config.eval_points]
    # one map per variable, in the fit points' units, for the fit and the test
    x, y = (standardize_vector(v, fit_idx) for v in (x, y))
    xf, yf = x[fit_idx], y[fit_idx]
    xe, ye = x[eval_idx], y[eval_idx]
    scatter: dict[str, np.ndarray] = {}

    def test(name, counterpart, value, residual) -> DirectionScores:
        """One residual-independence test; records its four scatter columns."""
        r = hsic.hsic_statistic(counterpart, residual, alpha=config.alpha)
        scatter.update({f"{name}_value": value, f"{name}_prediction": value - residual,
                        f"{name}_counterpart": counterpart, f"{name}_residual": residual})
        return DirectionScores(r.statistic, r.threshold)

    # pre-transform baseline: affine least squares, same protocol
    slope, icept = _ols_coeffs(xf, yf)
    raw_fwd = test("fwd_raw", xe, ye, ye - (slope * xe + icept))
    slope, icept = _ols_coeffs(yf, xf)
    raw_rev = test("rev_raw", ye, xe, xe - (slope * ye + icept))

    seeds = (config.seed * 2 + 1, config.seed * 2 + 2)
    scores, failures = [], []
    for name, direction, seed, (p, t) in (("fwd", "x_to_y", seeds[0], (x, y)),
                                          ("rev", "y_to_x", seeds[1], (y, x))):
        try:
            net = fit_transform(p[fit_idx], t[fit_idx], config, seed)
            p_prime, t_prime, res = residuals(net, p[eval_idx], t[eval_idx])
            scores.append(test(f"{name}_transformed", p_prime, t_prime, res))
        except (NumericalError, DegenerateDataError) as err:
            scores.append(DirectionScores(float("nan"), float("nan")))
            failures.append(f"{direction} transform fit failed: {err}")
    fwd, rev = scores
    if failures:
        decision, disparity = INCONCLUSIVE, float("nan")
    else:
        pair = (fwd.statistic, rev.statistic)
        decision = _decide(fwd, rev, config.disparity_min)
        disparity = max(pair) / max(min(pair), 1e-300)
    return AnmVerdict(decision=decision, raw_fwd=raw_fwd, raw_rev=raw_rev, fwd=fwd, rev=rev,
                      disparity=disparity, n=xe.size, seeds=seeds, pair_index=pair_index,
                      diagnostics="; ".join(failures) or None, scatter=scatter)
