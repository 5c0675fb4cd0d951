"""End-to-end command checks on desk-scale data."""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from macrobottle import autodiff as ad
from macrobottle import cli, dataio


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

    def test_verify_flag(self, tmp_path, capsys):
        code = run(["gen", "--scenario", "asymmetric", "--n", "60", "--seed", "2",
                    "--out", str(tmp_path / "d"), "--verify"])
        assert code == 0
        assert "verified" in capsys.readouterr().out

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


class TestInspect:
    def test_untrained_like_checkpoint_reports(self, tiny_run, tmp_path, capsys):
        cell = next(iter(tiny_run["train"].glob("cell_*")))
        out = tmp_path / "ins"
        code = run(["inspect", "--checkpoint", str(cell / "checkpoint"),
                    "--data", str(tiny_run["data"]), "--out", str(out)])
        assert code == 0
        doc = dataio.load_report(out / "inspect_report.json")
        assert "informative_x" in doc["metrics"]
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
        from macrobottle import cae
        model = cae.CaeModel.load(_checkpoint(tiny_run))
        for half in (model.net_x, model.net_y):
            half.param("enc.w1").data[...] *= 200.0  # informative neurons
        model.save(tmp_path / "ck")
        common = ["--checkpoint", str(tmp_path / "ck"), "--data", str(tiny_run["data"])]
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

    def test_missing_data_is_data_error(self, tiny_run, tmp_path):
        cell = next(iter(tiny_run["train"].glob("cell_*")))
        code = run(["direction", "--checkpoint", str(cell / "checkpoint"),
                    "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "d")])
        assert code == cli.EXIT_DATA


def _write(path, doc):
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
    "sweep-without-cells": (lambda t, tmp: _train(t, tmp, sweep={"base": {}}),
                            cli.EXIT_DATA),
    "sweep-cell-without-gamma": (lambda t, tmp: _train(t, tmp, sweep={"cells": [{"beta": 1}]}),
                                 cli.EXIT_DATA),
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
}


@pytest.mark.parametrize("case", list(EXIT_CASES))
def test_documented_exit_codes(case, tiny_run, tmp_path, capsys):
    make_argv, expected = EXIT_CASES[case]
    try:
        code = run(make_argv(tiny_run, tmp_path))
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code
    assert code == expected
    if expected == cli.EXIT_DATA:
        assert "data error" in capsys.readouterr().err
