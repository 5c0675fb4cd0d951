"""Self-tests of the benchmark harness, on inputs small enough to run in
seconds:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "anm_direction": {"n": 500, "epochs": 2, "eval_points": 200},
    "pipeline_cli": {"n": 2000, "epochs": 10,
                     "anm_config": {"epochs": 2, "fit_points": 100,
                                    "batch_size": 100, "eval_points": 100}},
}


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_wrappers_restore_originals():
    originals = [(owner, attr, vars(owner)[attr])
                 for _, owner, attr, _, _ in tracing.WRAPS]
    tracer = tracing.Tracer(time.perf_counter)
    tracer.install("op0")
    assert tracer.missing == []
    assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
    tracer.restore()
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_missing_target_is_reported_not_dropped():
    ns = types.SimpleNamespace(present=lambda: 1)
    tracer = tracing.Tracer(time.perf_counter, wraps=(
        ("ns.present", ns, "present", None, None),
        ("ns.gone", ns, "gone", None, None)))
    tracer.install("op0")
    ns.present()
    tracer.restore()
    assert tracer.missing == ["ns.gone"]
    assert [s.name for s in tracer.spans] == ["ns.present"]


def test_self_time_is_duration_minus_children():
    ticks = iter(range(100))
    ns = types.SimpleNamespace()
    ns.inner = lambda: None
    ns.outer = lambda: ns.inner()
    tracer = tracing.Tracer(lambda: float(next(ticks)), wraps=(
        ("outer", ns, "outer", None, None), ("inner", ns, "inner", None, None)))
    tracer.install("op0")
    ns.outer()
    tracer.restore()
    outer, inner = tracer.spans
    assert (outer.duration, outer.self_s, inner.parent) == (3.0, 2.0, 0)


def test_declared_names_and_units():
    doc = _declared()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    for m in doc["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_runs_agree(name, tmp_path):
    doc = _declared()
    workload = workloads.WORKLOADS[name](3, tmp_path, **SMALL[name])
    workload.setup()
    plain = run.measure(workload, 0.0)
    traced = run.measure(workload, 0.0, tracing.Tracer(time.perf_counter))
    # measure() fails an operation whose fingerprint differs from the first
    # one's; in a traced measurement the first operation is untraced
    assert traced["attempted"] == 2
    assert plain["failures"] == [] and traced["failures"] == []
    assert run._canonical(plain["fingerprint"]) == run._canonical(traced["fingerprint"])
    assert set(plain["metrics"]) | {"setup_s"} == {m["name"] for m in doc["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in doc["per_layer"]}
    assert traced["metrics"]["trace.missing"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "anm_direction", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
