"""The benchmark's workloads: inputs from a seed, one operation, checks.

Each workload makes its inputs from the workload seed in `setup`, runs one
user operation in `op` and checks that operation's outputs in `check`.
`check` returns the output fingerprint (values a later change must reproduce
on the same seed, within the tolerance it states) and the checks that failed.

- anm_direction: `direction_verdict` on the generator's true latents
  (x2, y2) with the default `AnmConfig`, only `epochs` shortened. Few large
  nodes: 1000x1000 Gram graphs, `median_bandwidth` and four n = 8000
  `hsic_statistic` calls dominate. No CAE, no file I/O.
- pipeline_cli: `cli.main` runs gen -> train -> inspect -> direction on the
  default 10 000-sample scenario, the user's end-to-end path, with its CSV,
  checkpoint and report I/O. One fixed pair is direction-tested, because the
  direction stage's work scales with the number of pairs tested. Its train
  stage is the default `CaeConfig` with only `epochs` shortened: many small
  autodiff nodes, where graph building, `backward` and the per-array Adam
  loop dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np
from jsonschema import ValidationError
from scipy.stats import gamma as gamma_dist

from macrobottle import anm, cli, datagen, dataio, hsic
from macrobottle.errors import MacrobottleError

N_SAMPLES = 10_000
ANM_EPOCHS = 10
PIPELINE_EPOCHS = 10  # the CAE has all four neurons informative by then
PIPELINE_ANM = {"epochs": 10, "eval_points": 2000}
PIPELINE_PAIR = 0
HSIC_CHECK_POINTS = 1500
BANDWIDTH_CHECK_POINTS = 1000  # median_bandwidth subsamples only above this
HSIC_RTOL = 1e-9
DECISIONS = {anm.X_CAUSES_Y, anm.Y_CAUSES_X, anm.NO_DIRECTION, anm.INCONCLUSIVE}


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def reference_bandwidth(v: np.ndarray) -> float:
    """Median pairwise absolute difference, dense."""
    d = np.abs(v[:, None] - v[None, :])
    return float(np.median(d[np.triu_indices(v.size, k=1)]))


def reference_hsic(x: np.ndarray, y: np.ndarray, bandwidths: tuple[float, float],
                   alpha: float) -> tuple[float, float]:
    """n * HSIC_b and its gamma-approximation threshold (Gretton et al.,
    2008) from dense Gram matrices."""
    n = x.size

    def gram(v, bw):
        d = v[:, None] - v[None, :]
        return np.exp(-d * d / (2.0 * bw * bw))

    def center(m):
        return m - m.mean(axis=0) - m.mean(axis=1)[:, None] + m.mean()

    k, l = gram(x, bandwidths[0]), gram(y, bandwidths[1])
    kc, lc = center(k), center(l)
    statistic = float((kc * l).sum() / n)
    prod = (kc * lc / 6.0) ** 2
    var = (prod.sum() - np.trace(prod)) / (n * (n - 1))
    var *= 72.0 * (n - 4) * (n - 5) / (n * (n - 1) * (n - 2) * (n - 3))
    mu_x = (k.sum() - n) / (n * (n - 1))
    mu_y = (l.sum() - n) / (n * (n - 1))
    mean = (1.0 + mu_x * mu_y - mu_x - mu_y) / n
    threshold = float(gamma_dist.ppf(1.0 - alpha, a=mean * mean / var,
                                     scale=var * n / mean))
    return statistic, threshold


def hsic_cross_check(x: np.ndarray, y: np.ndarray, seed: int,
                     alpha: float) -> tuple[dict, list[str]]:
    """The program's bandwidth, statistic and threshold against the dense
    references on a seeded subsample."""
    idx = np.random.default_rng([seed, 0xC4EC]).choice(
        x.size, min(HSIC_CHECK_POINTS, x.size), replace=False)
    xs, ys = x[idx], y[idx]
    failures = []
    small = xs[:BANDWIDTH_CHECK_POINTS]
    bw_ref = reference_bandwidth(small)
    if _rel_err(hsic.median_bandwidth(small), bw_ref) > HSIC_RTOL:
        failures.append("median_bandwidth differs from the dense reference")
    bandwidths = (reference_bandwidth(xs), reference_bandwidth(ys))
    got = hsic.hsic_statistic(xs, ys, alpha=alpha, bandwidths=bandwidths)
    stat_ref, thr_ref = reference_hsic(xs, ys, bandwidths, alpha)
    if _rel_err(got.statistic, stat_ref) > HSIC_RTOL:
        failures.append(f"hsic statistic {got.statistic!r} vs reference {stat_ref!r}")
    if _rel_err(got.threshold, thr_ref) > HSIC_RTOL:
        failures.append(f"hsic threshold {got.threshold!r} vs reference {thr_ref!r}")
    return {"statistic": got.statistic, "threshold": got.threshold}, failures


class AnmDirection:
    name = "anm_direction"

    def __init__(self, seed: int, workdir: Path, n: int = N_SAMPLES,
                 epochs: int = ANM_EPOCHS, eval_points: int | None = None):
        self.seed, self.n = seed, n
        self.config = anm.AnmConfig(epochs=epochs, seed=seed)
        if eval_points is not None:
            self.config.eval_points = eval_points

    def setup(self) -> None:
        latents = datagen.gen_main_synthetic(self.n, self.seed).ground_truth.latents
        self.x, self.y = latents["x2"], latents["y2"]
        n_fit = min(self.config.fit_points, self.n // 2)
        self.train_rows = 2 * n_fit * self.config.epochs  # both directions
        self.eval_n = min(self.config.eval_points, self.n - n_fit)

    def op(self):
        verdict = anm.direction_verdict(self.x, self.y, self.config)
        return self.train_rows, verdict

    def check(self, verdict) -> tuple[dict, list[str]]:
        failures = []
        if verdict.decision not in DECISIONS:
            failures.append(f"unknown decision {verdict.decision!r}")
        if verdict.n != self.eval_n:
            failures.append(f"tested on {verdict.n} points, expected {self.eval_n}")
        if verdict.diagnostics is not None:
            failures.append(f"transform fit failed: {verdict.diagnostics}")
        hsic_fp, hsic_failures = hsic_cross_check(
            self.x, self.y, self.seed, self.config.alpha)
        fingerprint = {**verdict.to_dict(), "hsic_check": hsic_fp}
        return fingerprint, failures + hsic_failures


class PipelineCli:
    name = "pipeline_cli"

    def __init__(self, seed: int, workdir: Path, n: int = N_SAMPLES,
                 epochs: int = PIPELINE_EPOCHS, anm_config: dict | None = None):
        self.seed, self.n, self.epochs = seed, n, epochs
        self.workdir = workdir
        self.anm_config = PIPELINE_ANM if anm_config is None else anm_config

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.anm_path = self.workdir / "anm.json"
        self.anm_path.write_text(json.dumps(self.anm_config), encoding="utf-8")
        self.train_rows = int(np.sum(datagen.assign_splits(self.n, self.seed)
                                     == datagen.TRAIN))

    def _cli(self, *argv: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects a usage error this way
                return exc.code

    def op(self):
        out = self.workdir / "op"
        shutil.rmtree(out, ignore_errors=True)
        data, run = str(out / "data"), out / "run"
        seed = str(self.seed)
        codes = {"gen": self._cli("gen", "--n", str(self.n), "--seed", seed,
                                  "--out", data)}
        codes["train"] = self._cli("train", "--data", data, "--out", str(run),
                                   "--seed", seed, "--epochs", str(self.epochs))
        checkpoint = next(run.glob("cell_*/checkpoint"), run / "missing")
        codes["inspect"] = self._cli("inspect", "--checkpoint", str(checkpoint),
                                     "--data", data, "--out", str(out / "inspect"))
        codes["direction"] = self._cli(
            "direction", "--checkpoint", str(checkpoint), "--data", data,
            "--out", str(out / "direction"), "--pairs", str(PIPELINE_PAIR),
            "--anm-config", str(self.anm_path), "--seed", seed)
        return self.train_rows * self.epochs, (codes, out, checkpoint)

    def check(self, outputs) -> tuple[dict, list[str]]:
        codes, out, checkpoint = outputs
        failures = [f"{cmd} exited {code}" for cmd, code in codes.items()
                    if code != cli.EXIT_OK]
        reports = {}
        for key, path in (("train", checkpoint.parent / "report.json"),
                          ("inspect", out / "inspect" / "inspect_report.json"),
                          ("direction", out / "direction" / "direction_report.json")):
            try:
                reports[key] = dataio.load_report(path)
            except (OSError, ValueError, ValidationError) as err:
                failures.append(f"{key} report: {type(err).__name__}: {err}")
        pair = datagen.gen_main_synthetic(self.n, self.seed)
        for name, expected in (("X.csv", pair.x), ("Y.csv", pair.y)):
            try:
                loaded, _ = dataio.load_matrix_csv(out / "data" / name)
            except (OSError, MacrobottleError) as err:
                failures.append(f"{name}: {err}")
                continue
            if not np.array_equal(loaded, expected):
                failures.append(f"{name} does not round-trip the generator bit-exactly")
        verdicts = reports.get("direction", {}).get("verdicts", [])
        if [v["pair_index"] for v in verdicts] != [PIPELINE_PAIR]:
            failures.append(f"direction tested pairs {[v['pair_index'] for v in verdicts]}")
        for v in verdicts:
            if v["decision"] not in DECISIONS:
                failures.append(f"unknown decision {v['decision']!r}")
            if v["diagnostics"] is not None:
                failures.append(f"transform fit failed: {v['diagnostics']}")
        params = checkpoint / "params.bin"
        fingerprint = {
            "exit_codes": codes,
            "train_metrics": reports.get("train", {}).get("metrics"),
            "loss_history": reports.get("train", {}).get("loss_history"),
            "inspect_metrics": reports.get("inspect", {}).get("metrics"),
            "verdicts": verdicts,
            "checkpoint_sha256": (hashlib.sha256(params.read_bytes()).hexdigest()
                                  if params.is_file() else None),
        }
        return fingerprint, failures


WORKLOADS = {w.name: w for w in (AnmDirection, PipelineCli)}
