"""Acceptance checks of the paper's claims on the synthetic main scenario.

Not part of tier-1: `pyproject.toml` deselects the `acceptance` marker, so
run them with

    PYTHONPATH=src python -m pytest -m acceptance tests/test_acceptance.py

This slice runs the ANM direction test, at the default `AnmConfig`, on the
generator's true latents, so a failure here belongs to the direction test
and never to the pairing: x2 -> y2 must come out as `x->y`, and the
confounded pair (x1, y1) as `no-direction`. Each seed writes its summary
(decision, statistics, thresholds, disparity, seconds) to
`.acceptance/anm_true_latents_seed<seed>.json` at the repository root
before anything is asserted, so a failing seed still leaves its numbers.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from macrobottle import anm, datagen

pytestmark = pytest.mark.acceptance

N_SAMPLES = 10_000  # the CLI's default main scenario
SEEDS = (1, 2, 3)
PAIRS = (("x2", "y2", anm.X_CAUSES_Y), ("x1", "y1", anm.NO_DIRECTION))
RESULTS = Path(__file__).resolve().parent.parent / ".acceptance"


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
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"anm_true_latents_seed{seed}.json"
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    wrong = {pair: (doc["decision"], doc["expected"])
             for pair, doc in summary["pairs"].items() if not doc["passed"]}
    assert not wrong, f"seed {seed}: (decision, expected) {wrong}; see {path}"
