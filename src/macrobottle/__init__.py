"""Causal macrovariable discovery from paired high-dimensional datasets.

Trains two coupled noisy-bottleneck networks on paired samples to extract
continuous macrovariables, then infers pairwise causal direction with
monotone-transform searches and additive-noise-model independence tests.
"""

from .anm import AnmConfig, AnmVerdict, direction_verdict, fit_transform
from .cae import CaeConfig, CaeModel, explained_variance, extract_macrovariables, train_cae
from .datagen import DatasetPair, gen_asymmetric, gen_main_synthetic, macro_readout
from .hsic import HsicResult, hsic_loss, hsic_statistic, median_bandwidth

__version__ = "0.1.0"

__all__ = [
    "AnmConfig", "AnmVerdict", "CaeConfig", "CaeModel", "DatasetPair",
    "HsicResult", "direction_verdict", "explained_variance",
    "extract_macrovariables", "fit_transform", "gen_asymmetric",
    "gen_main_synthetic", "hsic_loss", "hsic_statistic", "macro_readout",
    "median_bandwidth", "train_cae",
]
