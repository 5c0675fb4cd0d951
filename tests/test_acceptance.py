"""Acceptance checks of the paper's claims on the synthetic main scenario.

Not part of tier-1: `pyproject.toml` deselects the `acceptance` marker, so
run them with

    PYTHONPATH=src python -m pytest -m acceptance tests/test_acceptance.py

Two slices, each on seeds 1-3 at n = 10 000:

- The ANM direction test, at the default `AnmConfig`, on the generator's
  true latents, so a failure there belongs to the direction test and never
  to the pairing: x2 -> y2 must come out as `x->y`, and the confounded pair
  (x1, y1) as `no-direction`. Summary (decision, statistics, thresholds,
  disparity, seconds) in `.acceptance/anm_true_latents_seed<seed>.json`.
- The CAE pairing: `train_cae` at the default `CaeConfig`, seeded with the
  data seed so the split is the one `train --seed <seed>` uses, must find
  exactly two pairs on the TEST rows, each correlated at |corr| >= 0.9 on
  both sides with one true pair (x1/y1 or x2/y2), the two covering both
  true pairs, and a Hungarian assignment on |corr(mu_x, mu_y)| must agree
  with the index pairing. Record in `.acceptance/cae_pairs_seed<seed>.json`.

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

from macrobottle import anm, cae, datagen

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


@pytest.mark.parametrize("seed", SEEDS)
def test_cae_pairs_match_true_latents(seed):
    pair = datagen.gen_main_synthetic(N_SAMPLES, seed)
    config = cae.CaeConfig(seed=seed)  # the split `train --seed <seed>` draws
    t0 = time.monotonic()
    model, history = cae.train_cae(pair, config)
    train_s = time.monotonic() - t0
    test = model.stats.apply(pair)
    te = test.rows(datagen.TEST)
    metrics, rows, enc = cae.evaluate_model(model, test.x[te], test.y[te])
    latents = {name: v[te] for name, v in pair.ground_truth.latents.items()}
    names = list(latents)
    truth = np.column_stack([latents[name] for name in names])
    paired = enc.paired.tolist()
    ix, iy = enc.mask_x.indices, enc.mask_y.indices

    pairs = []
    for row in (r for r in rows if "unpaired_side" not in r):
        i = row["index"]
        corr_x = dict(zip(names, _abs_corr(enc.mu_x[:, [i]], truth)[0].tolist()))
        corr_y = dict(zip(names, _abs_corr(enc.mu_y[:, [i]], truth)[0].tolist()))
        matches = [f"{a}/{b}" for a, b in TRUE_PAIRS
                   if corr_x[a] >= MIN_ABS_CORR and corr_y[b] >= MIN_ABS_CORR]
        pairs.append({"index": i, "abs_corr_x": corr_x, "abs_corr_y": corr_y,
                      "matches": matches, "cross_ev_y_from_x": row["cross_ev_y_from_x"],
                      "cross_ev_x_from_y": row["cross_ev_x_from_y"]})

    mu_corr = _abs_corr(enc.mu_x[:, ix], enc.mu_y[:, iy]) if len(ix) and len(iy) else None
    assigned = []
    if mu_corr is not None:
        r, c = linear_sum_assignment(mu_corr, maximize=True)
        assigned = sorted([int(ix[a]), int(iy[b])] for a, b in zip(r, c))
    hungarian_agrees = assigned == [[i, i] for i in paired]

    covered = sorted(m for p in pairs for m in p["matches"])
    checks = {
        "two_pairs": len(paired) == 2,
        "each_pair_matches_one_true_pair": all(len(p["matches"]) == 1 for p in pairs),
        "both_true_pairs_covered": covered == [f"{a}/{b}" for a, b in TRUE_PAIRS],
        "hungarian_agrees": hungarian_agrees,
    }
    record = {
        "seed": seed, "n": N_SAMPLES, "config": config.to_dict(),
        "train_seconds": round(train_s, 1), "checks": checks,
        "informative_x": ix.tolist(), "informative_y": iy.tolist(), "paired": paired,
        "pairs": pairs, "kl_x": enc.mask_x.kl.tolist(), "kl_y": enc.mask_y.kl.tolist(),
        "cross_ev_y_from_x": metrics["cross_ev_y_from_x"],
        "cross_ev_x_from_y": metrics["cross_ev_x_from_y"],
        "mu_abs_corr": None if mu_corr is None else mu_corr.tolist(),
        "hungarian_assignment": assigned,
        "val": [{"val_loss": v["val_loss"], "informative_x": v["informative_x"],
                 "informative_y": v["informative_y"]} for v in history.val],
    }
    path = _write_record(f"cae_pairs_seed{seed}.json", record)
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"seed {seed}: {failed}; see {path}"
