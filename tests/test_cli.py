"""End-to-end command checks on desk-scale data."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from macrobottle import autodiff as ad
from macrobottle import anm, cli, datagen, dataio
from macrobottle.errors import NumericalError


def run(argv):
    return cli.main(argv)


class TestGen:
    def test_writes_four_files(self, tmp_path):
        out = tmp_path / "data"
        code = run(["gen", "--scenario", "main", "--n", "100", "--seed", "1",
                    "--out", str(out)])
        assert code == 0
        for name in ("X.csv", "Y.csv", "ground_truth.csv", "layout.json"):
            assert (out / name).exists(), name
        x, _ = dataio.load_matrix_csv(out / "X.csv")
        assert x.shape == (100, 64)

    def test_same_seed_identical_files(self, tmp_path):
        run(["gen", "--n", "50", "--seed", "7", "--out", str(tmp_path / "a")])
        run(["gen", "--n", "50", "--seed", "7", "--out", str(tmp_path / "b")])
        for name in ("X.csv", "Y.csv", "ground_truth.csv"):
            assert (tmp_path / "a" / name).read_text() == \
                (tmp_path / "b" / name).read_text()

    @pytest.mark.parametrize("scenario", ["main", "asymmetric"])
    def test_verify_flag(self, scenario, tmp_path, capsys):
        code = run(["gen", "--scenario", scenario, "--n", "60", "--seed", "2",
                    "--out", str(tmp_path / "d"), "--verify"])
        assert code == 0
        assert "verified" in capsys.readouterr().out

    def test_verify_reads_what_was_written(self, tmp_path, monkeypatch):
        save = dataio.save_matrix_csv

        def perturb_x(path, matrix, header=None):
            if path.name == "X.csv":
                matrix = matrix.copy()
                matrix[5, 7] = np.nextafter(matrix[5, 7], np.inf)
            save(path, matrix, header)

        monkeypatch.setattr(dataio, "save_matrix_csv", perturb_x)
        code = run(["gen", "--n", "60", "--seed", "2", "--out", str(tmp_path / "d"),
                    "--verify"])
        assert code == cli.EXIT_NUMERIC

    @pytest.mark.parametrize("scenario, name, latent", [
        ("main", "gen_main_synthetic", "y2"), ("asymmetric", "gen_asymmetric", "y1")])
    def test_verify_checks_the_structural_equations(self, scenario, name, latent,
                                                     tmp_path, monkeypatch, capsys):
        # the files hold what was generated, but one effect is a bit off
        gen = getattr(datagen, name)

        def off_by_one_bit(n, seed):
            pair = gen(n, seed)
            column = pair.ground_truth.latents[latent]
            column[7] = np.nextafter(column[7], np.inf)
            return pair

        monkeypatch.setattr(datagen, name, off_by_one_bit)
        code = run(["gen", "--scenario", scenario, "--n", "60", "--seed", "2",
                    "--out", str(tmp_path / "d"), "--verify"])
        assert code == cli.EXIT_NUMERIC
        assert "structural-equation verification failed" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "99")
        run(["gen", "--n", "30", "--out", str(tmp_path / "e")])
        meta = json.loads((tmp_path / "e" / "gen.json").read_text())
        assert meta["seed"] == 99

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--scenario", "bogus", "--out", "/tmp/x"])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A generated dataset plus one fast trained checkpoint."""
    root = tmp_path_factory.mktemp("tiny")
    data = root / "data"
    run(["gen", "--n", "400", "--seed", "3", "--out", str(data)])
    config = {"bottleneck_dim": 2, "encoder_hidden": [16],
              "decoder_hidden_per_variable": [8], "epochs": 5,
              "batch_size": 64, "seed": 3}
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = root / "train"
    code = run(["train", "--data", str(data), "--config", str(cfg_path),
                "--out", str(out)])
    assert code == 0
    return {"root": root, "data": data, "config": cfg_path, "train": out}


class TestTrain:
    def test_single_run_outputs(self, tiny_run):
        out = tiny_run["train"]
        cells = list(out.glob("cell_*"))
        assert len(cells) == 1
        doc = dataio.load_report(cells[0] / "report.json")
        assert doc["kind"] == "run_report"
        assert (cells[0] / "checkpoint" / "manifest.json").exists()
        assert (out / "summary.txt").exists()
        assert (out / "summary.csv").exists()
        history = doc["loss_history"]
        assert len(history["val_loss"]) == len(history["recon_x"]) == 5

    def test_sweep_layout_and_uniqueness(self, tiny_run, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(
            {"cells": [{"beta": 1.0, "gamma": 1.0}, {"beta": 1.0, "gamma": 1.0}]}))
        code = run(["train", "--data", str(tiny_run["data"]), "--config",
                    str(tiny_run["config"]), "--sweep", str(sweep),
                    "--out", str(tmp_path / "o")])
        assert code == 3  # duplicate cells are a data error

    def test_small_sweep(self, tiny_run, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(
            {"cells": [{"beta": 1.0, "gamma": 1.0}, {"beta": 0.1, "gamma": 1.0}]}))
        out = tmp_path / "o"
        code = run(["train", "--data", str(tiny_run["data"]), "--config",
                    str(tiny_run["config"]), "--sweep", str(sweep),
                    "--out", str(out), "--epochs", "2"])
        assert code == 0
        assert len(list(out.glob("cell_*"))) == 2
        text = (out / "summary.txt").read_text()
        assert "beta=1.0" in text and "beta=0.1" in text and "gamma=1.0" in text

    def test_parallel_sweep_matches_serial(self, tiny_run, tmp_path):
        sweep = {"cells": [{"beta": 1.0, "gamma": 1.0}, {"beta": 0.1, "gamma": 1.0}]}
        reports = []
        for parallel in ("1", "2"):
            out = tmp_path / f"p{parallel}"
            assert run(["train", "--data", str(tiny_run["data"]), "--config",
                        str(tiny_run["config"]), "--sweep", _write(tmp_path / "s.json", sweep),
                        "--out", str(out), "--epochs", "2", "--parallel", parallel]) == 0
            docs = {p.parent.name: dataio.load_report(p) for p in out.glob("cell_*/report.json")}
            for doc in docs.values():
                assert doc.pop("timing_seconds") > 0
            reports.append(docs)
        assert len(reports[0]) == 2 and reports[0] == reports[1]

    def test_sweep_parses_the_pair_once(self, tiny_run, tmp_path, monkeypatch):
        load, paths = dataio.load_matrix_csv, []

        def counting_load(path):
            paths.append(Path(path).name)
            return load(path)

        monkeypatch.setattr(dataio, "load_matrix_csv", counting_load)
        sweep = {"cells": [{"beta": 1.0, "gamma": 1.0}, {"beta": 0.1, "gamma": 1.0},
                           {"beta": 0.1, "gamma": 0.5}]}
        assert run(_train(tiny_run, tmp_path, sweep=sweep) + ["--epochs", "1"]) == cli.EXIT_OK
        assert paths == ["X.csv", "Y.csv"]
        assert len(list((tmp_path / "o").glob("cell_*/report.json"))) == 3

    def test_bad_data_file_exits_before_any_cell(self, tiny_run, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(tiny_run["data"], data)
        with open(data / "Y.csv", "a", encoding="utf-8") as fh:
            fh.write("oops\n")
        sweep = {"cells": [{"beta": 1.0, "gamma": 1.0}, {"beta": 0.1, "gamma": 1.0}]}
        argv = _train({**tiny_run, "data": data}, tmp_path, sweep=sweep)
        assert run(argv + ["--epochs", "1"]) == cli.EXIT_DATA
        assert "Y.csv:402" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # no cell, no summary, no empty directory

    def test_partial_grid_prints_dash_for_missing_cells(self, tiny_run, tmp_path, capsys):
        sweep = {"cells": [{"beta": 1.0, "gamma": 1.0}, {"beta": 0.1, "gamma": 0.5}]}
        assert run(_train(tiny_run, tmp_path, sweep=sweep) + ["--epochs", "1"]) == cli.EXIT_OK
        lines = (tmp_path / "o" / "summary.txt").read_text().splitlines()
        assert lines[0].split() == ["beta=1.0", "beta=0.1"]
        rows = {line[:12].strip(): line[12:].strip() for line in lines[1:]}
        assert list(rows) == ["gamma=1.0", "gamma=0.5"]
        # (beta=0.1, gamma=1.0) and (beta=1.0, gamma=0.5) were not in the sweep
        assert rows["gamma=1.0"].startswith("|X|=") and rows["gamma=1.0"].endswith("-")
        assert rows["gamma=0.5"].startswith("- ") and "|X|=" in rows["gamma=0.5"]
        assert all(row.count("|X|=") == 1 for row in rows.values())
        assert capsys.readouterr().out.startswith("\n".join(lines))

    def test_summary_columns_line_up_with_headers(self, tiny_run, tmp_path, monkeypatch):
        # a filled cell is about 40 characters; a fixed narrower width glued
        # the next cell onto it and pushed it out from under its header
        from macrobottle import cae
        train = cae.train_cae

        def diverge_at_one_cell(pair, config):
            if (config.beta, config.gamma) == (0.1, 1.0):
                raise NumericalError("non-finite loss at epoch 0")
            return train(pair, config)

        monkeypatch.setattr(cae, "train_cae", diverge_at_one_cell)
        # (beta=1.0, gamma=0.5) is missing from the 2 x 2 grid
        sweep = {"cells": [{"beta": 1.0, "gamma": 1.0}, {"beta": 0.1, "gamma": 1.0},
                           {"beta": 0.1, "gamma": 0.5}]}
        assert run(_train(tiny_run, tmp_path, sweep=sweep) + ["--epochs", "1"]) == cli.EXIT_OK
        header, *lines = (tmp_path / "o" / "summary.txt").read_text().splitlines()
        starts = [header.index("beta=1.0"), header.index("beta=0.1")]
        cells = {line[:12].strip(): [line[a:b].rstrip() for a, b in zip(starts, starts[1:] + [None])]
                 for line in lines}
        assert list(cells) == ["gamma=1.0", "gamma=0.5"]
        (filled_1, failed), (missing, filled_2) = cells.values()
        assert failed == "FAILED" and missing == "-"
        for filled in (filled_1, filled_2):
            assert filled.startswith("|X|=") and filled.count("|X|=") == 1 and len(filled) > 34

    @pytest.mark.parametrize("how", ["flag", "env", "file"])
    def test_seed_overrides_config_seed(self, tiny_run, tmp_path, monkeypatch, how):
        # one rule for train and direction: a flag, then $MACROBOTTLE_SEED,
        # then the files (--config before a sweep's "base"; --anm-config)
        from macrobottle import cae
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        seed_flag, epochs_flag = [], []
        if how == "flag":
            monkeypatch.setenv(cli.SEED_ENV_VAR, "11")  # the flag wins over the variable
            seed_flag, epochs_flag = ["--seed", "7"], ["--epochs", "1"]
        elif how == "env":
            monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
        assert json.loads(tiny_run["config"].read_text())["seed"] == 3
        sweep = _write(tmp_path / "sweep.json", {"cells": [{"beta": 1.0, "gamma": 1.0}],
                                                 "base": {"epochs": 2, "seed": 9}})
        config = ["--config", str(tiny_run["config"])]  # seed 3, 5 epochs
        for name, files, file_seed, file_epochs in (("config", config, 3, 5),
                                                    ("sweep", ["--sweep", sweep], 9, 2),
                                                    ("both", config + ["--sweep", sweep], 3, 5)):
            out = tmp_path / name
            assert run(["train", "--data", str(tiny_run["data"]), *files, "--out", str(out),
                        *seed_flag, *epochs_flag]) == cli.EXIT_OK
            (cell,) = out.glob("cell_*")
            doc = dataio.load_report(cell / "report.json")
            seed = file_seed if how == "file" else 7
            epochs = 1 if epochs_flag else file_epochs
            assert doc["seed"] == doc["config"]["seed"] == seed, name
            assert doc["config"]["epochs"] == len(doc["loss_history"]["val_loss"]) == epochs, name
            assert cae.CaeModel.load(cell / "checkpoint").config.seed == seed

        anm_config = _write(tmp_path / "anm.json", {"epochs": 1, "batch_size": 100, "seed": 5,
                                                    "fit_points": 100, "eval_points": 100})
        assert run(["direction", "--checkpoint", _informative_checkpoint(tiny_run, tmp_path),
                    "--data", str(tiny_run["data"]), "--anm-config", anm_config, "--pairs", "0",
                    "--out", str(tmp_path / "dir"), *seed_flag]) == cli.EXIT_OK
        doc = dataio.load_report(tmp_path / "dir" / "direction_report.json")
        seed = 5 if how == "file" else 7
        assert doc["seed"] == doc["config"]["anm"]["seed"] == seed
        assert doc["verdicts"][0]["seeds"] == [2 * seed + 1, 2 * seed + 2]

    def test_huge_loss_weight_cell_is_reported_failed(self, tiny_run, tmp_path, capsys):
        config = {**json.loads(tiny_run["config"].read_text()), "beta": 1e300, "epochs": 2}
        assert run(_train(tiny_run, tmp_path, config=config)) == cli.EXIT_OK
        out = tmp_path / "o"
        (cell,) = out.glob("cell_*")
        assert "Adam step" in (cell / "error.txt").read_text()
        assert not (cell / "report.json").exists()
        assert "FAILED" in (out / "summary.txt").read_text()
        assert "1 cell(s) failed" in capsys.readouterr().out

    def test_failed_cell_is_reported(self, tiny_run, tmp_path, monkeypatch, capsys):
        from macrobottle import cae
        train = cae.train_cae

        def diverge_at_beta_one(pair, config):
            if config.beta == 1.0:
                raise NumericalError("non-finite loss at epoch 0")
            return train(pair, config)

        monkeypatch.setattr(cae, "train_cae", diverge_at_beta_one)
        sweep = {"cells": [{"beta": 1.0, "gamma": 1.0}, {"beta": 0.1, "gamma": 1.0}]}
        out = tmp_path / "o"
        assert run(["train", "--data", str(tiny_run["data"]), "--config",
                    str(tiny_run["config"]), "--sweep", _write(tmp_path / "s.json", sweep),
                    "--out", str(out), "--epochs", "1"]) == cli.EXIT_OK
        failed, kept = out / "cell_b1.0_g1.0", out / "cell_b0.1_g1.0"
        assert (failed / "error.txt").read_text() == "non-finite loss at epoch 0"
        assert not (failed / "report.json").exists() and (kept / "report.json").exists()
        assert "FAILED" in (out / "summary.txt").read_text()
        summary, _ = dataio.load_matrix_csv(out / "summary.csv")
        assert summary.shape[0] == 1 and summary[0, 0] == 0.1
        assert "1 cell(s) failed" in capsys.readouterr().out


class TestInspect:
    def test_untrained_like_checkpoint_reports(self, tiny_run, tmp_path, capsys):
        cell = next(iter(tiny_run["train"].glob("cell_*")))
        out = tmp_path / "ins"
        code = run(["inspect", "--checkpoint", str(cell / "checkpoint"),
                    "--data", str(tiny_run["data"]), "--out", str(out)])
        assert code == 0
        doc = dataio.load_report(out / "inspect_report.json")
        assert "informative_x" in doc["metrics"]
        assert doc["timing_seconds"] > 0
        assert "informative neurons" in capsys.readouterr().out


class TestDirection:
    def test_no_informative_pairs_exit_code(self, tiny_run, tmp_path, capsys):
        from macrobottle import cae
        cell = next(iter(tiny_run["train"].glob("cell_*")))
        model = cae.CaeModel.load(cell / "checkpoint")
        for half in (model.net_x, model.net_y):
            half.param("enc.w1").data[...] = 0.0  # all-noise bottleneck
            half.param("enc.b1").data[...] = 0.0
        model.save(tmp_path / "noise_ck")
        code = run(["direction", "--checkpoint", str(tmp_path / "noise_ck"),
                    "--data", str(tiny_run["data"]), "--out", str(tmp_path / "dir")])
        assert code == cli.EXIT_NO_PAIRS
        assert "no informative" in capsys.readouterr().out

    def test_pairs_chosen_as_inspect_reports(self, tiny_run, tmp_path):
        # direction must test the pairs inspect lists, chosen on the same rows
        common = ["--checkpoint", _informative_checkpoint(tiny_run, tmp_path),
                  "--data", str(tiny_run["data"])]
        anm_config = _write(tmp_path / "anm.json", {"epochs": 1, "batch_size": 100,
                                                    "fit_points": 100, "eval_points": 100})
        assert run(["inspect", *common, "--out", str(tmp_path / "ins")]) == cli.EXIT_OK
        assert run(["direction", *common, "--anm-config", anm_config,
                    "--out", str(tmp_path / "dir")]) == cli.EXIT_OK
        inspected = dataio.load_report(tmp_path / "ins" / "inspect_report.json")
        directed = dataio.load_report(tmp_path / "dir" / "direction_report.json")
        paired = [r["index"] for r in inspected["pair_table"] if "unpaired_side" not in r]
        assert paired
        assert [v["pair_index"] for v in directed["verdicts"]] == paired
        for key in ("kl_x", "kl_y", "informative_x", "informative_y"):
            assert directed["metrics"][key] == inspected["metrics"][key], key
        epochs = json.loads(tiny_run["config"].read_text())["epochs"]  # the checkpoint's
        assert inspected["metrics"]["epochs_run"] == directed["metrics"]["epochs_run"] == epochs
        assert directed["timing_seconds"] > 0

    @pytest.mark.parametrize("failure", ["fit-diverges", "constant-transform"])
    def test_failed_fit_is_an_inconclusive_verdict(self, failure, tiny_run, tmp_path,
                                                   monkeypatch):
        # the first pair's transform fits fail; the run still reports every pair
        calls = []
        fit, residuals = anm.fit_transform, anm.residuals

        def diverging_fit(x, y, direction, config, seed):
            calls.append(direction)
            if len(calls) <= 2:
                raise NumericalError(f"transform training diverged ({direction})")
            return fit(x, y, direction, config, seed)

        def constant_transform(net, x, y, direction):
            calls.append(direction)
            if len(calls) <= 2:
                return np.ones(x.size), np.ones(x.size), np.zeros(x.size)
            return residuals(net, x, y, direction)

        if failure == "fit-diverges":
            monkeypatch.setattr(anm, "fit_transform", diverging_fit)
        else:
            monkeypatch.setattr(anm, "residuals", constant_transform)
        ck = _informative_checkpoint(tiny_run, tmp_path)
        anm_config = _write(tmp_path / "anm.json", {"epochs": 1, "batch_size": 100,
                                                    "fit_points": 100, "eval_points": 100})
        out = tmp_path / "dir"
        assert run(["direction", "--checkpoint", ck, "--data", str(tiny_run["data"]),
                    "--anm-config", anm_config, "--out", str(out)]) == cli.EXIT_OK
        verdicts = dataio.load_report(out / "direction_report.json")["verdicts"]
        assert len(verdicts) >= 2
        first, *others = verdicts
        assert first["decision"] == "inconclusive"
        assert "x_to_y" in first["diagnostics"] and "y_to_x" in first["diagnostics"]
        assert first["raw_fwd"]["statistic"] is not None and first["fwd"]["statistic"] is None
        _, header = dataio.load_matrix_csv(out / f"scatter_pair{first['pair_index']}.csv")
        assert header == [f"{test}_{col}" for test in ("fwd_raw", "rev_raw")
                          for col in ("value", "prediction", "counterpart", "residual")]
        for v in others:
            assert v["diagnostics"] is None and v["fwd"]["statistic"] is not None
            _, header = dataio.load_matrix_csv(out / f"scatter_pair{v['pair_index']}.csv")
            assert len(header) == 16

    def test_one_pair_index(self, tiny_run, tmp_path, capsys):
        common = ["--checkpoint", _informative_checkpoint(tiny_run, tmp_path),
                  "--data", str(tiny_run["data"]), "--anm-config",
                  _write(tmp_path / "anm.json", {"epochs": 1, "batch_size": 100,
                                                 "fit_points": 100, "eval_points": 100})]
        out = tmp_path / "dir"
        assert run(["direction", *common, "--pairs", "1", "--out", str(out)]) == cli.EXIT_OK
        doc = dataio.load_report(out / "direction_report.json")
        assert [r["index"] for r in doc["pair_table"]] == [0, 1]  # the table lists every pair
        assert [v["pair_index"] for v in doc["verdicts"]] == [1]
        assert sorted(p.name for p in out.glob("scatter_*")) == ["scatter_pair1.csv"]
        capsys.readouterr()
        assert run(["direction", *common, "--pairs", "2",
                    "--out", str(tmp_path / "d2")]) == cli.EXIT_NO_PAIRS
        assert "pair 2 is not an informative pair (have [0, 1])" in capsys.readouterr().out

    def test_missing_data_is_data_error(self, tiny_run, tmp_path):
        cell = next(iter(tiny_run["train"].glob("cell_*")))
        code = run(["direction", "--checkpoint", str(cell / "checkpoint"),
                    "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "d")])
        assert code == cli.EXIT_DATA


def _write(path, doc):
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def _train(tiny, tmp, config=None, sweep=None):
    argv = ["train", "--data", str(tiny["data"]), "--out", str(tmp / "o")]
    if config is not None:
        argv += ["--config", _write(tmp / "config.json", config)]
    if sweep is not None:
        argv += ["--config", str(tiny["config"]), "--sweep", _write(tmp / "sweep.json", sweep)]
    return argv


def _checkpoint(tiny):
    return next(iter(tiny["train"].glob("cell_*"))) / "checkpoint"


def _informative_checkpoint(tiny, tmp):
    """The tiny checkpoint with its encoder's first layer scaled up, which
    makes both bottleneck pairs informative."""
    from macrobottle import cae
    model = cae.CaeModel.load(_checkpoint(tiny))
    for half in (model.net_x, model.net_y):
        half.param("enc.w1").data[...] *= 200.0
    model.save(tmp / "ck")
    return str(tmp / "ck")


def _truncated(tiny, tmp):
    ck = tmp / "ck"
    shutil.copytree(_checkpoint(tiny), ck)
    blob = ck / "params.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    return ["inspect", "--checkpoint", str(ck), "--data", str(tiny["data"]),
            "--out", str(tmp / "ins")]


def _flipped_byte(tiny, tmp):
    # same size as the manifest lists, so only the digest can tell
    ck = tmp / "ck"
    shutil.copytree(_checkpoint(tiny), ck)
    blob = bytearray((ck / "params.bin").read_bytes())
    blob[len(blob) // 2] ^= 0x01
    (ck / "params.bin").write_bytes(bytes(blob))
    return ["inspect", "--checkpoint", str(ck), "--data", str(tiny["data"]),
            "--out", str(tmp / "ins")]


def _inspect_with_layout(tiny, tmp, layout):
    return ["inspect", "--checkpoint", str(_checkpoint(tiny)), "--data", str(tiny["data"]),
            "--layout", _write(tmp / "layout.json", layout), "--out", str(tmp / "ins")]


def _constant_x(tiny, tmp):
    # every X row at the training mean standardizes to exact zeros, so the
    # explained variance of X is undefined
    data = tmp / "data"
    shutil.copytree(tiny["data"], data)
    x, header = dataio.load_matrix_csv(data / "X.csv")
    arrays, _ = ad.load_checkpoint(_checkpoint(tiny))
    dataio.save_matrix_csv(data / "X.csv", np.tile(arrays["norm.x_mean"], (len(x), 1)),
                           header)
    return ["inspect", "--checkpoint", str(_checkpoint(tiny)), "--data", str(data),
            "--out", str(tmp / "ins")]


def _edited_manifest(tiny, tmp, edit):
    ck = tmp / "ck"
    shutil.copytree(_checkpoint(tiny), ck)
    path = ck / "manifest.json"
    manifest = json.loads(path.read_text())
    # without its own digest, as older versions wrote it, so the edit reaches
    # the checks behind that digest
    manifest.pop("manifest_sha256")
    text = edit(manifest)  # the edit changes the manifest or returns the new text
    path.write_text(text if isinstance(text, str) else json.dumps(manifest))
    return ["inspect", "--checkpoint", str(ck), "--data", str(tiny["data"]),
            "--out", str(tmp / "ins")]


def _narrow_x(tiny, tmp, command):
    # ten X columns against a model trained on 64
    data = tmp / "data"
    shutil.copytree(tiny["data"], data)
    x, header = dataio.load_matrix_csv(data / "X.csv")
    dataio.save_matrix_csv(data / "X.csv", x[:, :10], header[:10])
    return [command, "--checkpoint", str(_checkpoint(tiny)), "--data", str(data),
            "--out", str(tmp / "out")]


def _x_not_utf8(tiny, tmp):
    data = tmp / "data"
    shutil.copytree(tiny["data"], data)
    (data / "X.csv").write_bytes(b"\xff\xfe" + (data / "X.csv").read_bytes())
    return ["train", "--data", str(data), "--config", str(tiny["config"]),
            "--out", str(tmp / "o")]


def _direction(tiny, tmp, *extra):
    return ["direction", "--checkpoint", str(_checkpoint(tiny)),
            "--data", str(tiny["data"]), "--out", str(tmp / "dir"), *extra]


EXIT_CASES = {
    "gen": (lambda t, tmp: ["gen", "--n", "40", "--out", str(tmp / "g")], cli.EXIT_OK),
    "unknown-scenario": (lambda t, tmp: ["gen", "--scenario", "bogus", "--out", str(tmp)],
                         cli.EXIT_USAGE),
    "negative-beta": (lambda t, tmp: _train(t, tmp, config={"beta": -1}), cli.EXIT_DATA),
    "removed-variant": (lambda t, tmp: _train(t, tmp, config={"cross_map": "mlp"}),
                        cli.EXIT_DATA),
    "config-not-json": (lambda t, tmp: _train(t, tmp, config="{beta"), cli.EXIT_DATA),
    # a byte that is not UTF-8 is a data error, not a UnicodeDecodeError traceback
    "config-not-utf8": (lambda t, tmp: _train(t, tmp, config=b'{"beta": "\xff"}'),
                        cli.EXIT_DATA),
    "sweep-not-utf8": (lambda t, tmp: _train(t, tmp, sweep=b'\xff{"cells": []}'),
                       cli.EXIT_DATA),
    "anm-config-not-utf8": (lambda t, tmp: _direction(
        t, tmp, "--anm-config", _write(tmp / "anm.json", b'{"seed": 1}\xff')), cli.EXIT_DATA),
    "sweep-without-cells": (lambda t, tmp: _train(t, tmp, sweep={"base": {}}),
                            cli.EXIT_DATA),
    "sweep-cell-without-gamma": (lambda t, tmp: _train(t, tmp, sweep={"cells": [{"beta": 1}]}),
                                 cli.EXIT_DATA),
    "sweep-cell-beta-a-list": (lambda t, tmp: _train(
        t, tmp, sweep={"cells": [{"beta": [1], "gamma": 1}]}), cli.EXIT_DATA),
    "unknown-anm-field": (lambda t, tmp: _direction(
        t, tmp, "--anm-config", _write(tmp / "anm.json", {"bogus": 1})), cli.EXIT_DATA),
    "anm-batch-size-zero": (lambda t, tmp: _direction(
        t, tmp, "--anm-config", _write(tmp / "anm.json", {"batch_size": 0})), cli.EXIT_DATA),
    "anm-alpha-above-one": (lambda t, tmp: _direction(
        t, tmp, "--anm-config", _write(tmp / "anm.json", {"alpha": 1.5})), cli.EXIT_DATA),
    "anm-activation-identity": (lambda t, tmp: _direction(
        t, tmp, "--anm-config", _write(tmp / "anm.json", {"activation": "identity"})),
        cli.EXIT_DATA),
    # an older config naming the one activation still loads: the run reaches the pair check
    "anm-activation-tanh": (lambda t, tmp: _direction(
        t, tmp, "--anm-config", _write(tmp / "anm.json", {"activation": "tanh"}),
        "--pairs", "7"), cli.EXIT_NO_PAIRS),
    "pairs-not-an-index": (lambda t, tmp: _direction(t, tmp, "--pairs", "abc"),
                           cli.EXIT_USAGE),
    "inspect-k-zero": (lambda t, tmp: ["inspect", "--checkpoint", str(_checkpoint(t)),
                                       "--data", str(t["data"]), "--k", "0",
                                       "--out", str(tmp / "ins")], cli.EXIT_USAGE),
    "truncated-checkpoint": (_truncated, cli.EXIT_DATA),
    "checkpoint-byte-flipped": (_flipped_byte, cli.EXIT_DATA),
    "layout-unknown-field": (lambda t, tmp: _inspect_with_layout(
        t, tmp, {"rows": 8, "cols": 8, "colour": "red"}), cli.EXIT_DATA),
    "zero-variance-data": (_constant_x, cli.EXIT_NUMERIC),
    "pair-not-informative": (lambda t, tmp: _direction(t, tmp, "--pairs", "7"),
                             cli.EXIT_NO_PAIRS),
    "manifest-not-json": (lambda t, tmp: _edited_manifest(t, tmp, lambda m: "{format"),
                          cli.EXIT_DATA),
    "manifest-without-arrays": (lambda t, tmp: _edited_manifest(
        t, tmp, lambda m: m.pop("arrays")), cli.EXIT_DATA),
    "manifest-without-config": (lambda t, tmp: _edited_manifest(
        t, tmp, lambda m: m["extra"].pop("config")), cli.EXIT_DATA),
    "manifest-without-input-dim": (lambda t, tmp: _edited_manifest(
        t, tmp, lambda m: m["extra"].pop("input_dim_y")), cli.EXIT_DATA),
    "manifest-config-not-an-object": (lambda t, tmp: _edited_manifest(
        t, tmp, lambda m: m["extra"].update(config=[1])), cli.EXIT_DATA),
    "manifest-input-dim-not-an-integer": (lambda t, tmp: _edited_manifest(
        t, tmp, lambda m: m["extra"].update(input_dim_x="abc")), cli.EXIT_DATA),
    "inspect-data-width-mismatch": (lambda t, tmp: _narrow_x(t, tmp, "inspect"),
                                    cli.EXIT_DATA),
    "direction-data-width-mismatch": (lambda t, tmp: _narrow_x(t, tmp, "direction"),
                                      cli.EXIT_DATA),
    "seed-env-not-an-integer": (lambda t, tmp: ["gen", "--n", "40", "--out", str(tmp / "g")],
                                cli.EXIT_USAGE, {cli.SEED_ENV_VAR: "abc"}),
    "sweep-base-not-an-object": (lambda t, tmp: _train(
        t, tmp, sweep={"cells": [{"beta": 1, "gamma": 1}], "base": [1]}), cli.EXIT_DATA),
    "x-csv-not-utf8": (_x_not_utf8, cli.EXIT_DATA),
    "config-is-a-directory": (lambda t, tmp: ["train", "--data", str(t["data"]),
                                              "--config", str(tmp), "--out", str(tmp / "o")],
                              cli.EXIT_DATA),
    "layout-is-a-directory": (lambda t, tmp: [
        "inspect", "--checkpoint", str(_checkpoint(t)), "--data", str(t["data"]),
        "--layout", str(tmp), "--out", str(tmp / "ins")], cli.EXIT_DATA),
    "cae-encoder-width-zero": (lambda t, tmp: _train(t, tmp, config={"encoder_hidden": [0]}),
                               cli.EXIT_DATA),
    "cae-decoder-width-zero": (lambda t, tmp: _train(
        t, tmp, config={"decoder_hidden_per_variable": [0]}), cli.EXIT_DATA),
    "cae-bottleneck-not-an-integer": (lambda t, tmp: _train(
        t, tmp, config={"bottleneck_dim": 2.5}), cli.EXIT_DATA),
    "cae-batch-size-a-float": (lambda t, tmp: _train(t, tmp, config={"batch_size": 1e9}),
                               cli.EXIT_DATA),
    "cae-seed-negative": (lambda t, tmp: _train(t, tmp, config={"seed": -1}), cli.EXIT_DATA),
    "cae-learning-rate-negative": (lambda t, tmp: _train(
        t, tmp, config={"learning_rate": -1, "epochs": 1}), cli.EXIT_DATA),
    "anm-hidden-not-an-integer": (lambda t, tmp: _direction(
        t, tmp, "--anm-config", _write(tmp / "anm.json", {"hidden": 2.5})), cli.EXIT_DATA),
    "anm-epochs-not-an-integer": (lambda t, tmp: _direction(
        t, tmp, "--anm-config", _write(tmp / "anm.json", {"epochs": 1.5})), cli.EXIT_DATA),
    "anm-eval-points-a-float": (lambda t, tmp: _direction(
        t, tmp, "--anm-config", _write(tmp / "anm.json", {"eval_points": 1e9})),
        cli.EXIT_DATA),
    "anm-disparity-not-a-number": (lambda t, tmp: _direction(
        t, tmp, "--anm-config", _write(tmp / "anm.json", {"disparity_min": "x"})),
        cli.EXIT_DATA),
    "anm-seed-negative": (lambda t, tmp: _direction(
        t, tmp, "--anm-config", _write(tmp / "anm.json", {"seed": -1})), cli.EXIT_DATA),
    "anm-learning-rate-negative": (lambda t, tmp: _direction(
        t, tmp, "--anm-config", _write(tmp / "anm.json", {"learning_rate": -1})),
        cli.EXIT_DATA),
    "anm-beta-t-negative": (lambda t, tmp: _direction(
        t, tmp, "--anm-config", _write(tmp / "anm.json", {"beta_t": -1})), cli.EXIT_DATA),
    "gen-seed-negative": (lambda t, tmp: ["gen", "--n", "40", "--seed", "-1",
                                          "--out", str(tmp / "g")], cli.EXIT_USAGE),
    "train-seed-negative": (lambda t, tmp: ["train", "--data", str(t["data"]), "--seed", "-1",
                                            "--out", str(tmp / "o")], cli.EXIT_USAGE),
    "seed-env-negative": (lambda t, tmp: ["gen", "--n", "40", "--out", str(tmp / "g")],
                          cli.EXIT_USAGE, {cli.SEED_ENV_VAR: "-1"}),
    # Python's json reads NaN and Infinity; a float field must be a finite number
    "cae-gamma-nan": (lambda t, tmp: _train(t, tmp, config='{"gamma": NaN, "epochs": 1}'),
                      cli.EXIT_DATA),
    "cae-beta-a-bool": (lambda t, tmp: _train(t, tmp, config={"beta": True, "epochs": 1}),
                        cli.EXIT_DATA),
    "cae-kl-threshold-infinite": (lambda t, tmp: _train(
        t, tmp, config='{"kl_threshold": Infinity, "epochs": 1}'), cli.EXIT_DATA),
    "sweep-gamma-nan": (lambda t, tmp: _train(
        t, tmp, sweep='{"cells": [{"beta": 1, "gamma": NaN}]}'), cli.EXIT_DATA),
    "anm-learning-rate-a-bool": (lambda t, tmp: _direction(
        t, tmp, "--anm-config", _write(tmp / "anm.json", {"learning_rate": True}),
        "--pairs", "7"), cli.EXIT_DATA),
    "anm-beta-t-infinite": (lambda t, tmp: _direction(
        t, tmp, "--anm-config", _write(tmp / "anm.json", '{"beta_t": Infinity}'),
        "--pairs", "7"), cli.EXIT_DATA),
    # integer flags are checked by argparse, before any file is read
    "gen-n-zero": (lambda t, tmp: ["gen", "--n", "0", "--out", str(tmp / "g")],
                   cli.EXIT_USAGE),
    "train-epochs-negative": (lambda t, tmp: ["train", "--data", str(tmp / "none"),
                                              "--epochs", "-1", "--out", str(tmp / "o")],
                              cli.EXIT_USAGE),
    "train-parallel-zero": (lambda t, tmp: ["train", "--data", str(tmp / "none"),
                                            "--parallel", "0", "--out", str(tmp / "o")],
                            cli.EXIT_USAGE),
}


@pytest.mark.parametrize("case", list(EXIT_CASES))
def test_documented_exit_codes(case, tiny_run, tmp_path, capsys, monkeypatch):
    make_argv, expected, *env = EXIT_CASES[case]
    for name, value in (env[0] if env else {}).items():
        monkeypatch.setenv(name, value)
    try:
        code = run(make_argv(tiny_run, tmp_path))
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code
    assert code == expected
    if expected == cli.EXIT_DATA:
        assert "data error" in capsys.readouterr().err
