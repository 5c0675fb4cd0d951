"""Command-line surface: generation, training sweeps, inspection, direction.

Every command is reproducible from its inputs, config and seed, all of which
are embedded in the emitted reports. Exit codes: 0 success, 2 usage error,
3 data error, 4 numerical failure, 5 no informative pair to analyze.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import anm, cae, dataio, datagen
from .errors import DataError, MacrobottleError, NumericalError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_NO_PAIRS = 5

SEED_ENV_VAR = "MACROBOTTLE_SEED"


def all_or_index(text: str) -> str | int:
    return text if text == "all" else int(text)  # argparse: ValueError -> exit 2


def int_at_least(low: int):
    """An argparse type for integers of at least low; any other text raises
    the ValueError that argparse reports as a usage error (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(text)
        return value

    parse.__name__ = f"integer >= {low}"  # argparse names the type in its message
    return parse


def config_fields(flags: dict, *files: dict) -> dict:
    """The config fields a command runs with, by one rule: a flag that is set
    (an unset --seed defaults to $MACROBOTTLE_SEED), then the files' fields,
    an earlier file before a later one. A field none of them sets keeps the
    config class's default."""
    fields = {}
    for doc in reversed(files):
        fields.update(doc)
    fields.update({name: v for name, v in flags.items() if v is not None})
    return fields


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    return f"{v:.3f}"


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    out = Path(args.out)
    if args.scenario == "main":
        pair = datagen.gen_main_synthetic(args.n, args.seed)
    else:
        pair = datagen.gen_asymmetric(args.n, args.seed)
    dataio.save_pair(out, pair)  # makes the directory
    dataio.save_ground_truth(out / "ground_truth.csv", pair.ground_truth, pair.split)
    layout = dataio.GridLayout(datagen.IMAGE_SIDE, datagen.IMAGE_SIDE)
    layout.save(out / "layout.json")
    with open(out / "gen.json", "w", encoding="utf-8") as fh:
        json.dump({"scenario": args.scenario, "n": args.n, "seed": args.seed}, fh, indent=2)

    if args.verify:  # what was written must be what was generated
        x, _ = dataio.load_matrix_csv(out / "X.csv")
        y, _ = dataio.load_matrix_csv(out / "Y.csv")
        truth, names = dataio.load_matrix_csv(out / "ground_truth.csv")
        expected = np.column_stack([pair.ground_truth.as_matrix(), pair.split])
        if not (np.array_equal(x, pair.x) and np.array_equal(y, pair.y)
                and np.array_equal(truth, expected)):
            raise NumericalError(f"the files in {out} differ from the generated data")
        columns = dict(zip(names, truth.T))  # the reloaded latents and noises
        if not datagen.equations_hold(args.scenario, columns):
            raise NumericalError("structural-equation verification failed")
        print("written files and structural equations verified")
    print(f"wrote {pair.n} samples to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def _load_checkpoint_and_data(args) -> tuple[cae.CaeModel, datagen.DatasetPair]:
    """The --checkpoint model and the pair in the --data directory, split as
    the model's training split it, in the model's units."""
    model = cae.CaeModel.load(args.checkpoint)
    data_dir = Path(args.data)
    pair = dataio.load_pair_csv(data_dir / "X.csv", data_dir / "Y.csv")
    widths = (pair.x.shape[1], pair.y.shape[1])
    if widths != (model.net_x.input_dim, model.net_y.input_dim):
        raise DataError(f"{data_dir} has {widths[0]} X and {widths[1]} Y columns; the model "
                        f"expects {model.net_x.input_dim} and {model.net_y.input_dim}")
    pair.split = datagen.assign_splits(pair.n, model.config.seed)
    return model, model.stats.apply(pair) if model.stats is not None else pair


def _test_report(model: cae.CaeModel, pair: datagen.DatasetPair):
    """Report metrics and pair-table rows on the TEST rows of a pair in the
    model's units, plus the encoding behind them. This is where `train`,
    `inspect` and `direction` choose the informative pairs. Training runs
    every configured epoch, so epochs_run is the model's config.epochs."""
    te = pair.rows(datagen.TEST)
    final, rows, enc = cae.evaluate_model(model, pair.x[te], pair.y[te])
    final.pop("val_loss")
    final["epochs_run"] = model.config.epochs
    return final, rows, enc


def _run_cell(x: np.ndarray, y: np.ndarray, config: cae.CaeConfig, cell_dir: str) -> dict:
    """Worker for one sweep cell; returns the report metrics for the summary."""
    cell = Path(cell_dir)
    cell.mkdir(parents=True, exist_ok=True)
    pair = datagen.DatasetPair(x, y, datagen.assign_splits(len(x), config.seed))
    t0 = time.monotonic()
    try:
        model, history = cae.train_cae(pair, config)
    except NumericalError as err:
        with open(cell / "error.txt", "w", encoding="utf-8") as fh:
            fh.write(str(err))
        return {"beta": config.beta, "gamma": config.gamma, "failed": str(err)}
    final, table_rows, _ = _test_report(model, model.stats.apply(pair))
    model.save(cell / "checkpoint")
    report = dataio.RunReport(
        seed=config.seed, config=config.to_dict(), metrics=final,
        timing_seconds=time.monotonic() - t0,
        loss_history={**history.terms, "val_loss": [v["val_loss"] for v in history.val]},
        pair_table=table_rows)
    dataio.save_report(cell / "report.json", report)
    return {"beta": config.beta, "gamma": config.gamma, **final}


def _summary_table(results: list[dict]) -> str:
    betas = sorted({r["beta"] for r in results}, reverse=True)
    gammas = sorted({r["gamma"] for r in results}, reverse=True)
    by_cell = {(r["beta"], r["gamma"]): r for r in results}

    def cell(b, g) -> str:
        r = by_cell.get((b, g))
        if r is None:
            return "-"
        if "failed" in r:
            return "FAILED"
        return (f"|X|={r['informative_x']},|Y|={r['informative_y']} "
                f"EV={_fmt(r['ev_y_from_x'])}/{_fmt(r['ev_x_from_y'])} "
                f"xEV={_fmt(r['cross_ev_y_from_x'])}/{_fmt(r['cross_ev_x_from_y'])}")

    header = [f"beta={b}" for b in betas]
    grid = [[cell(b, g) for b in betas] for g in gammas]
    width = max(len(c) for c in header + [c for row in grid for c in row]) + 2  # plus a gap
    lines = ["".ljust(12) + "".join(c.ljust(width) for c in header)]
    lines += [f"gamma={g}".ljust(12) + "".join(c.ljust(width) for c in row)
              for g, row in zip(gammas, grid)]
    return "\n".join(lines)


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    out = Path(args.out)
    config = dataio.load_json_object(args.config) if args.config else {}
    sweep = dataio.load_json_object(args.sweep) if args.sweep else {}
    sweep_base = sweep.get("base", {})
    if not isinstance(sweep_base, dict):
        raise DataError('sweep "base" must be a JSON object')
    base = cae.CaeConfig.from_dict(config_fields(
        {"seed": args.seed, "epochs": args.epochs}, config, sweep_base))
    cells = sweep.get("cells") if args.sweep else [{"beta": base.beta, "gamma": base.gamma}]
    if not isinstance(cells, list) or not cells:
        raise DataError('sweep needs a non-empty "cells" list')
    if not all(isinstance(c, dict) and {"beta", "gamma"} <= c.keys() for c in cells):
        raise DataError('every sweep cell needs "beta" and "gamma"')

    configs = []
    for i, cell in enumerate(cells):
        cfg = {**base.to_dict(), "beta": cell["beta"], "gamma": cell["gamma"],
               "seed": base.seed + i}  # independent seeds per cell
        cell_dir = out / f"cell_b{cell['beta']}_g{cell['gamma']}"
        configs.append((cae.CaeConfig.from_dict(cfg), str(cell_dir)))
    # compared once validated, so a value JSON cannot hash is already a data error
    if len({(c.beta, c.gamma) for c, _ in configs}) != len(configs):
        raise DataError("sweep cells must be unique")
    # parsed once for all cells; each cell builds its own split from its seed
    data = dataio.load_pair_csv(data_dir / "X.csv", data_dir / "Y.csv")
    out.mkdir(parents=True, exist_ok=True)  # only once every input has loaded
    jobs = [(data.x, data.y, config, cell_dir) for config, cell_dir in configs]

    if args.parallel > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
            results = list(pool.map(_run_cell, *zip(*jobs)))
    else:
        results = [_run_cell(*job) for job in jobs]

    table = _summary_table(results)
    print(table)
    with open(out / "summary.txt", "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    header = ["beta", "gamma", "informative_x", "informative_y",
              "ev_y_from_x", "ev_x_from_y", "cross_ev_y_from_x", "cross_ev_x_from_y"]
    rows = [[r[h] for h in header] for r in results if "failed" not in r]
    if rows:
        m = np.array(rows, dtype=np.float64)  # a None metric becomes NaN
        m = np.nan_to_num(m, nan=-999.0)  # CSV matrices must be finite
        dataio.save_matrix_csv(out / "summary.csv", m, header)
    failed = [r for r in results if "failed" in r]
    if failed:
        print(f"{len(failed)} cell(s) failed; see error.txt in their directories")
    return EXIT_OK


# ---------------------------------------------------------------------------
# direction


def cmd_direction(args) -> int:
    t0 = time.monotonic()
    fields = dataio.load_json_object(args.anm_config) if args.anm_config else {}
    anm_config = anm.AnmConfig.from_dict(config_fields({"seed": args.seed}, fields))
    model, pair = _load_checkpoint_and_data(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    final, rows, enc = _test_report(model, pair)
    paired = enc.paired
    if len(paired) == 0:
        print("no informative macrovariable pair detected; nothing to analyze")
        return EXIT_NO_PAIRS
    if args.pairs != "all":
        if args.pairs not in paired:
            print(f"pair {args.pairs} is not an informative pair (have {paired.tolist()})")
            return EXIT_NO_PAIRS
        paired = np.array([args.pairs])

    mu_x = model.net_x.encode_mean(pair.x)
    mu_y = model.net_y.encode_mean(pair.y)
    verdicts = []
    for idx in paired:
        verdict = anm.direction_verdict(mu_x[:, idx], mu_y[:, idx], anm_config,
                                        pair_index=int(idx))
        dataio.save_matrix_csv(out / f"scatter_pair{idx}.csv",
                               np.column_stack(list(verdict.scatter.values())),
                               list(verdict.scatter))
        verdicts.append(verdict)
        print(f"pair {idx}: {verdict.decision}   "
              f"raw fwd {verdict.raw_fwd.statistic:.3f}/{verdict.raw_fwd.threshold:.3f} "
              f"rev {verdict.raw_rev.statistic:.3f}/{verdict.raw_rev.threshold:.3f}   "
              f"transformed fwd {verdict.fwd.statistic:.3f}/{verdict.fwd.threshold:.3f} "
              f"rev {verdict.rev.statistic:.3f}/{verdict.rev.threshold:.3f}   "
              f"disparity {verdict.disparity:.2f}")

    report = dataio.RunReport(
        seed=anm_config.seed,
        config={"anm": vars(anm_config), "checkpoint": str(args.checkpoint)},
        metrics=final, timing_seconds=time.monotonic() - t0, pair_table=rows,
        verdicts=[v.to_dict() for v in verdicts])
    dataio.save_report(out / "direction_report.json", report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# inspect


def cmd_inspect(args) -> int:
    t0 = time.monotonic()
    model, pair = _load_checkpoint_and_data(args)
    if args.layout:
        layout = dataio.GridLayout.load(args.layout)
    else:
        layout = dataio.GridLayout(datagen.IMAGE_SIDE, datagen.IMAGE_SIDE)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    final, rows, enc = _test_report(model, pair)
    k = args.k or max(1, pair.n // 50)
    for side, data, half, mask in (("x", pair.x, model.net_x, enc.mask_x),
                                   ("y", pair.y, model.net_y, enc.mask_y)):
        mu = half.encode_mean(data)
        for neuron in mask.indices:
            dataio.emit_anomaly_grid(
                out / f"anomaly_{side}_n{neuron}_high.csv",
                out / f"anomaly_{side}_n{neuron}_low.csv",
                data, mu[:, neuron], layout, k)

    report = dataio.RunReport(seed=model.config.seed, config=model.config.to_dict(),
                              metrics=final, timing_seconds=time.monotonic() - t0,
                              pair_table=rows)
    dataio.save_report(out / "inspect_report.json", report)

    print(f"informative neurons: X {enc.mask_x.indices.tolist()}  "
          f"Y {enc.mask_y.indices.tolist()}")
    pairs = [r for r in rows if "unpaired_side" not in r]
    unpaired = {side: [r["index"] for r in rows if r.get("unpaired_side") == side]
                for side in "xy"}
    print(f"paired: {[r['index'] for r in pairs]}  "
          f"unpaired X {unpaired['x']}  unpaired Y {unpaired['y']}")
    for r in pairs:
        print(f"pair {r['index']}: cross-EV {r['cross_ev_y_from_x']:.3f}/"
              f"{r['cross_ev_x_from_y']:.3f}  a={r['a_x_to_y']:.3f}/{r['a_y_to_x']:.3f}")
    print(f"anomaly grids written to {out} (k={k})")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # argparse converts a string default with `type`, so a bad $MACROBOTTLE_SEED
    # is a usage error like a bad --seed
    env_seed = os.environ.get(SEED_ENV_VAR) or None
    parser = argparse.ArgumentParser(
        prog="macrobottle",
        description="Discover causal macrovariables in paired datasets and "
                    "test pairwise causal direction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic paired dataset")
    p.add_argument("--scenario", choices=("main", "asymmetric"), default="main")
    p.add_argument("--n", type=int_at_least(1), default=10_000)
    p.add_argument("--seed", type=int_at_least(0), default=env_seed or 0,
                   help=f"defaults to ${SEED_ENV_VAR} or 0")
    p.add_argument("--out", required=True)
    p.add_argument("--verify", action="store_true",
                   help="re-check the structural equations after writing")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train one model or a beta/gamma sweep")
    p.add_argument("--data", required=True, help="directory with X.csv and Y.csv")
    p.add_argument("--config", help="JSON file mirroring CaeConfig fields")
    p.add_argument("--sweep", help='JSON file: {"cells": [{"beta": ..., "gamma": ...}]}')
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int_at_least(0), default=env_seed,
                   help=f"defaults to ${SEED_ENV_VAR}, else the --config seed, "
                        'else the sweep "base" seed')
    p.add_argument("--epochs", type=int_at_least(0), default=None)
    p.add_argument("--parallel", type=int_at_least(1), default=1,
                   help="run sweep cells in this many worker processes")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("direction", help="infer causal direction per macrovariable pair")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--pairs", type=all_or_index, default="all",
                   help='"all" or one pair index')
    p.add_argument("--anm-config", help="JSON file mirroring AnmConfig fields")
    p.add_argument("--seed", type=int_at_least(0), default=env_seed,
                   help=f"defaults to ${SEED_ENV_VAR}, else the --anm-config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_direction)

    p = sub.add_parser("inspect", help="report neuron divergences, pairs, anomaly grids")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--layout", help="layout.json; defaults to the 8x8 synthetic grid")
    p.add_argument("--k", type=int_at_least(1), default=None,
                   help="top/bottom sample count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except MacrobottleError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
