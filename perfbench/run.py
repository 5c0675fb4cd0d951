"""Benchmark of the macrobottle pipeline: one workload per invocation.

    python3 perfbench/run.py --workload pipeline_cli --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
The workload runs in a fresh child process with BLAS threads pinned to one
and a single caller issuing operations in a closed loop: the next operation
starts when the previous one has finished and been checked, until
`--seconds` have passed; the operation running then is finished. With
`--trace 0` the last line of standard output holds the end-to-end metrics:
set-up time (median over several child processes, each timed from spawn to
ready), the median operation time, training throughput and peak RSS. With
`--trace 1` the child alternates untraced and traced operations and the last
line holds the per-layer metrics of the first traced operation, plus the
tracing overhead. Other lines carry the environment and the output
fingerprint. See perfbench/README.md for the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

SETUP_SAMPLES = 3  # child processes whose set-up is timed; the last measures
DEADLINE_S = 170.0
READY = "perfbench: ready"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "op_s": "s", "train_rows_per_s": "rows/s",
             "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if "bytes" in name:
        return "bytes"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "lines" if name == "code.src_lines" else "count"


# ---------------------------------------------------------------------------
# child process: set up, then measure


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "macrobottle").rglob("*.py")))


def _environment() -> dict:
    import numpy as np
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "src_lines": _src_lines(),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=lambda v: v.item())


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop of operations; with a tracer, untraced and traced
    operations alternate and the per-layer metrics come from the first
    traced one."""
    from macrobottle.errors import MacrobottleError

    import tracing

    clock = time.perf_counter
    walls = {False: [], True: []}
    rates, failures = [], []
    fingerprint = layer = None
    attempted = failed = 0
    start = clock()
    while True:
        traced = tracer is not None and attempted % 2 == 1
        run = f"op{attempted}"
        if traced:
            tracer.reset_counts()
            tracer.install(run)
        t0 = clock()
        try:
            rows, outputs = workload.op()
        except MacrobottleError as err:
            outputs, errors = None, [f"{type(err).__name__}: {err}"]
        finally:
            wall = clock() - t0
            if traced:
                tracer.restore()
        if outputs is not None:
            walls[traced].append(wall)
            rates.append(rows / wall)
            fp, errors = workload.check(outputs)
            if fingerprint is None:
                fingerprint = fp
            elif _canonical(fp) != _canonical(fingerprint):
                errors.append("fingerprint differs from the first operation's")
        if errors:
            failed += 1
            failures += [f"{run}: {e}" for e in errors]
        attempted += 1
        if traced and layer is None:
            layer = tracing.layer_metrics(tracer, {"setup", run})
        pair_done = tracer is None or traced
        if pair_done and clock() - start >= seconds:
            break

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        metrics = {"op_s": _median(walls[False]),
                   "train_rows_per_s": _median(rates),
                   "peak_rss_mb": rss_mb}
    else:
        metrics = {**layer,
                   "trace.overhead_s": _median(walls[True]) - _median(walls[False]),
                   "trace.missing": len(tracer.missing),
                   "code.src_lines": _src_lines()}
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "fingerprint": fingerprint, "metrics": metrics,
            "op_walls": {"untraced": walls[False], "traced": walls[True]}}


def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    workdir = SCRATCH / f"work-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer(time.perf_counter) if args.trace else None
    try:
        if tracer is not None:
            tracer.install("setup")
        try:
            workload.setup()
        finally:
            if tracer is not None:
                tracer.restore()
        print(READY, flush=True)
        if args.role == "setup":
            return 0
        result = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment()
    if tracer is not None:
        if tracer.missing:
            print(f"perfbench: wrap targets missing: {tracer.missing}", file=sys.stderr)
        SCRATCH.mkdir(exist_ok=True)
        spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "missing": tracer.missing,
                       "spans": [{"name": s.name, "start": s.start, "end": s.end,
                                  "parent": s.parent, "run": s.run}
                                 for s in tracer.spans]}, fh)
    print("perfbench-environment " + json.dumps(env))
    print("perfbench-fingerprint " + _canonical(result.pop("fingerprint")))
    print("perfbench-operations " + json.dumps(result.pop("op_walls")))
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# parent process


def _run_child(argv: list[str], deadline: float) -> tuple[float | None, list[str], int]:
    """Run one child; returns (seconds from spawn to ready, other stdout
    lines, exit code). The child is killed at the deadline."""
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *argv],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    setup_s, lines = None, []
    try:
        for line in proc.stdout:
            if setup_s is None and line.rstrip("\n") == READY:
                setup_s = time.perf_counter() - start
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return setup_s, lines, code


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("anm_direction", "pipeline_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role is not None:
        return child_main(args)
    if not (SRC / "macrobottle" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    for role in ["setup"] * (0 if args.trace else SETUP_SAMPLES - 1) + ["measure"]:
        setup_s, lines, code = _run_child(base + ["--role", role], deadline)
        if code != 0 or setup_s is None:
            print(f"perfbench: {role} child exited with code {code}", file=sys.stderr)
            return 1
        setups.append(setup_s)

    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    for failure in result["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    metrics = result["metrics"]
    if args.trace:
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics["setup_s"] = statistics.median(setups)
        units = E2E_UNITS
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
