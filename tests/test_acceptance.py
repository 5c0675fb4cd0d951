"""Acceptance checks of the paper's claims on the synthetic main scenario.

Not part of tier-1: `pyproject.toml` deselects the `acceptance` marker, so
run them with

    PYTHONPATH=src python -m pytest -m acceptance tests/test_acceptance.py

Three slices, each on seeds 1-3 at n = 10 000:

- The ANM direction test, at the default `AnmConfig`, on the generator's
  true latents, so a failure there belongs to the direction test and never
  to the pairing: x2 -> y2 must come out as `x->y`, and the confounded pair
  (x1, y1) as `no-direction`. Summary (decision, statistics, thresholds,
  disparity, seconds) in `.acceptance/anm_true_latents_seed<seed>.json`.
- The CAE pairing: `train_cae` at the default `CaeConfig`, seeded with the
  data seed as `train --seed <seed>` is, must find exactly two pairs on the
  model's test rows (`cae.test_report`), each correlated at |corr| >= 0.9 on
  both sides with one true pair (x1/y1 or x2/y2), the two covering both
  true pairs, and a Hungarian assignment on |corr(mu_x, mu_y)| must agree
  with the index pairing. Record in `.acceptance/cae_pairs_seed<seed>.json`.
  On the asymmetric scenario (`gen_asymmetric`, y1 = x1^2) the same
  training must find exactly one pair, correlated at |corr| >= 0.9 with x1
  on the X side and with y1 on the Y side. Record in
  `.acceptance/cae_pairs_asymmetric_seed<seed>.json`.
- Oracle slices of the HSIC test at the verdict's protocol (split seed
  [0, 0x5EED], 1000 fit points, 8000 test points), with no transform fit,
  so a change to `hsic` that breaks the test cannot hide behind a failing
  fit: it must accept y2 - tanh(x2) against x2 and the same residual of the
  pixel means of the X right half and the Y bottom half, and reject the
  x1/y1 residual of a cubic `np.polyfit` on the fit points both ways.
  Record in `.acceptance/hsic_oracle_seed<seed>.json`. About 5 s in all.

Each test writes its record under `.acceptance/` at the repository root
before anything is asserted, so a failing seed still leaves its numbers.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from macrobottle import anm, cae, datagen, hsic

pytestmark = pytest.mark.acceptance

N_SAMPLES = 10_000  # the CLI's default main scenario
SEEDS = (1, 2, 3)
PAIRS = (("x2", "y2", anm.X_CAUSES_Y), ("x1", "y1", anm.NO_DIRECTION))
TRUE_PAIRS = (("x1", "y1"), ("x2", "y2"))
MIN_ABS_CORR = 0.9
RESULTS = Path(__file__).resolve().parent.parent / ".acceptance"


def _write_record(name: str, record: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("seed", SEEDS)
def test_anm_on_true_latents(seed):
    latents = datagen.gen_main_synthetic(N_SAMPLES, seed).ground_truth.latents
    config = anm.AnmConfig()
    summary = {"seed": seed, "n": N_SAMPLES, "config": asdict(config), "pairs": {}}
    for x_name, y_name, expected in PAIRS:
        t0 = time.monotonic()
        verdict = anm.direction_verdict(latents[x_name], latents[y_name], config)
        summary["pairs"][f"{x_name}/{y_name}"] = {
            "expected": expected, "passed": verdict.decision == expected,
            "seconds": round(time.monotonic() - t0, 2), **verdict.to_dict()}
    path = _write_record(f"anm_true_latents_seed{seed}.json", summary)
    wrong = {pair: (doc["decision"], doc["expected"])
             for pair, doc in summary["pairs"].items() if not doc["passed"]}
    assert not wrong, f"seed {seed}: (decision, expected) {wrong}; see {path}"


def _abs_corr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|corr| of every column of a with every column of b."""
    k = a.shape[1]
    return np.abs(np.corrcoef(a, b, rowvar=False)[:k, k:])


def _pairing_record(pair: datagen.DatasetPair, seed: int,
                    true_pairs: tuple[tuple[str, str], ...]) -> dict:
    """Train the default CAE on a generated pair, seeded with the data seed
    as `train --seed <seed>` is, and record its pairs on the model's test
    rows, each with the true pairs it matches; the checks are left empty."""
    config = cae.CaeConfig(seed=seed)
    t0 = time.monotonic()
    model, history = cae.train_cae(pair, config)
    train_s = time.monotonic() - t0
    metrics, rows, enc = cae.test_report(model, pair.x, pair.y)
    te = cae.split_rows(pair.n, config.seed)[2]
    latents = {name: v[te] for name, v in pair.ground_truth.latents.items()}
    names = list(latents)
    truth = np.column_stack([latents[name] for name in names])
    ix, iy = enc.mask_x.indices, enc.mask_y.indices

    pairs = []
    for row in (r for r in rows if "unpaired_side" not in r):
        i = row["index"]
        corr_x = dict(zip(names, _abs_corr(enc.mu_x[:, [i]], truth)[0].tolist()))
        corr_y = dict(zip(names, _abs_corr(enc.mu_y[:, [i]], truth)[0].tolist()))
        matches = [f"{a}/{b}" for a, b in true_pairs
                   if corr_x[a] >= MIN_ABS_CORR and corr_y[b] >= MIN_ABS_CORR]
        pairs.append({"index": i, "abs_corr_x": corr_x, "abs_corr_y": corr_y,
                      "matches": matches, "cross_ev_y_from_x": row["cross_ev_y_from_x"],
                      "cross_ev_x_from_y": row["cross_ev_x_from_y"]})

    mu_corr = _abs_corr(enc.mu_x[:, ix], enc.mu_y[:, iy]) if len(ix) and len(iy) else None
    assigned = []
    if mu_corr is not None:
        r, c = linear_sum_assignment(mu_corr, maximize=True)
        assigned = sorted([int(ix[a]), int(iy[b])] for a, b in zip(r, c))

    record = {
        "seed": seed, "n": N_SAMPLES, "config": config.to_dict(),
        "train_seconds": round(train_s, 1), "checks": {},
        "informative_x": ix.tolist(), "informative_y": iy.tolist(),
        "paired": enc.paired.tolist(),
        "pairs": pairs, "kl_x": enc.mask_x.kl.tolist(), "kl_y": enc.mask_y.kl.tolist(),
        "cross_ev_y_from_x": metrics["cross_ev_y_from_x"],
        "cross_ev_x_from_y": metrics["cross_ev_x_from_y"],
        "mu_abs_corr": None if mu_corr is None else mu_corr.tolist(),
        "hungarian_assignment": assigned,
        "val": [{"val_loss": v["val_loss"], "informative_x": v["informative_x"],
                 "informative_y": v["informative_y"]} for v in history.val],
    }
    return record


def _check(record: dict, checks: dict, name: str) -> None:
    """Write the record with its checks, then fail on any check that fails."""
    record["checks"] = checks
    path = _write_record(name, record)
    failed = [check for check, ok in checks.items() if not ok]
    assert not failed, f"seed {record['seed']}: {failed}; see {path}"


@pytest.mark.parametrize("seed", SEEDS)
def test_cae_pairs_match_true_latents(seed):
    record = _pairing_record(datagen.gen_main_synthetic(N_SAMPLES, seed), seed, TRUE_PAIRS)
    paired, pairs = record["paired"], record["pairs"]
    covered = sorted(m for p in pairs for m in p["matches"])
    _check(record, {
        "two_pairs": len(paired) == 2,
        "each_pair_matches_one_true_pair": all(len(p["matches"]) == 1 for p in pairs),
        "both_true_pairs_covered": covered == [f"{a}/{b}" for a, b in TRUE_PAIRS],
        "hungarian_agrees": record["hungarian_assignment"] == [[i, i] for i in paired],
    }, f"cae_pairs_seed{seed}.json")


@pytest.mark.parametrize("seed", SEEDS)
def test_cae_pairs_asymmetric(seed):
    record = _pairing_record(datagen.gen_asymmetric(N_SAMPLES, seed), seed, (("x1", "y1"),))
    _check(record, {
        "one_pair": len(record["paired"]) == 1,
        "pair_matches_x1_y1": [p["matches"] for p in record["pairs"]] == [["x1/y1"]],
    }, f"cae_pairs_asymmetric_seed{seed}.json")


@pytest.mark.parametrize("seed", SEEDS)
def test_hsic_oracle_slices(seed):
    pair = datagen.gen_main_synthetic(N_SAMPLES, seed)
    v = dict(pair.ground_truth.latents)
    side, half = datagen.IMAGE_SIDE, datagen.IMAGE_SIDE // 2
    x_img, y_img = (m.reshape(-1, side, side) for m in (pair.x, pair.y))
    v["x_pixels"] = x_img[:, :, half:].mean(axis=(1, 2))  # the right half holds x2
    v["y_pixels"] = y_img[:, half:, :].mean(axis=(1, 2))  # the bottom half holds y2
    # the rows direction_verdict fits and tests on at the default AnmConfig
    config = anm.AnmConfig()
    perm = np.random.default_rng([config.seed, 0x5EED]).permutation(N_SAMPLES)
    fit = perm[:config.fit_points]
    test = perm[config.fit_points:config.fit_points + config.eval_points]

    def cubic_residual(cause, effect):
        return v[effect] - np.polyval(np.polyfit(v[cause][fit], v[effect][fit], 3), v[cause])

    slices = {  # name -> (cause, residual, accepted as independent)
        "y2 - tanh(x2) against x2": ("x2", v["y2"] - np.tanh(v["x2"]), True),
        "pixel means, y - tanh(x) against x":
            ("x_pixels", v["y_pixels"] - np.tanh(v["x_pixels"]), True),
        "x1/y1 cubic fit, forward": ("x1", cubic_residual("x1", "y1"), False),
        "x1/y1 cubic fit, reverse": ("y1", cubic_residual("y1", "x1"), False),
    }
    record = {"seed": seed, "n": N_SAMPLES, "fit_points": fit.size, "test_points": test.size,
              "checks": {}, "slices": {}}
    checks = {}
    for name, (cause, residual, expected) in slices.items():
        r = hsic.hsic_statistic(v[cause][test], residual[test], alpha=config.alpha)
        record["slices"][name] = {"statistic": r.statistic, "threshold": r.threshold,
                                  "expected_accepted": expected}
        checks[name] = (r.statistic < r.threshold) == expected
    _check(record, checks, f"hsic_oracle_seed{seed}.json")
