"""Evaluation quantities: explained variance, per-neuron divergence from the
prior, informative-neuron detection and variable-pair bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import LOGVAR_MAX, LOGVAR_MIN
from .errors import DimensionError, NumericalError

DEFAULT_KL_THRESHOLD = 0.05


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


def per_neuron_kl(mu: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """Mean over samples of 0.5 * (mu^2 + sigma^2 - 1 - log sigma^2) per
    neuron; zero exactly when a neuron always sits at the standard normal."""
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    if mu.shape != logvar.shape:
        raise DimensionError(f"shape mismatch: {mu.shape} vs {logvar.shape}")
    lv = np.clip(logvar, LOGVAR_MIN, LOGVAR_MAX)
    per_sample = 0.5 * (mu ** 2 + np.exp(lv) - 1.0 - lv)
    return per_sample.mean(axis=0)


@dataclass
class InformativeMask:
    """Which bottleneck neurons carry sample-dependent information."""

    kl: np.ndarray
    flags: np.ndarray
    threshold: float

    @property
    def count(self) -> int:
        return int(self.flags.sum())

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.flags)


def informative_mask(kl: np.ndarray, threshold: float = DEFAULT_KL_THRESHOLD) -> InformativeMask:
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    kl = np.asarray(kl, dtype=np.float64)
    return InformativeMask(kl=kl, flags=kl > threshold, threshold=threshold)


@dataclass
class Encoding:
    """Noiseless bottleneck means of one block of (x, y) rows and, per side,
    which neurons are informative on that block (`mask_*.kl` is the
    per-neuron divergence behind the decision)."""

    mu_x: np.ndarray
    mu_y: np.ndarray
    mask_x: InformativeMask
    mask_y: InformativeMask

    @property
    def paired(self) -> np.ndarray:
        """Indices informative on both sides: the macrovariable pairs."""
        return np.flatnonzero(self.mask_x.flags & self.mask_y.flags)


@dataclass
class PairRow:
    """One index-aligned macrovariable pair across the two halves."""

    index: int
    a_x_to_y: float
    b_x_to_y: float
    a_y_to_x: float
    b_y_to_x: float
    cross_ev_y_from_x: float
    cross_ev_x_from_y: float


@dataclass
class PairTable:
    pairs: list[PairRow]
    unpaired_x: list[int]
    unpaired_y: list[int]


def pair_table(model, enc: Encoding) -> PairTable:
    """Pairs are index-aligned by the diagonal cross-map: neuron i of one
    half predicts neuron i of the other. Indices informative on both sides
    become rows; one-sided informative neurons are listed as unpaired."""
    pred_y = model.net_x.cross_predict_np(enc.mu_x)
    pred_x = model.net_y.cross_predict_np(enc.mu_y)
    a_x, b_x = model.net_x.cross_params()
    a_y, b_y = model.net_y.cross_params()
    paired = enc.paired
    rows = [PairRow(index=int(i),
                    a_x_to_y=float(a_x[i]), b_x_to_y=float(b_x[i]),
                    a_y_to_x=float(a_y[i]), b_y_to_x=float(b_y[i]),
                    cross_ev_y_from_x=explained_variance(enc.mu_y[:, i], pred_y[:, i]),
                    cross_ev_x_from_y=explained_variance(enc.mu_x[:, i], pred_x[:, i]))
            for i in paired]
    return PairTable(pairs=rows,
                     unpaired_x=[int(i) for i in enc.mask_x.indices if i not in paired],
                     unpaired_y=[int(i) for i in enc.mask_y.indices if i not in paired])
