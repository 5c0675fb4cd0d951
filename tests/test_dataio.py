"""Serialization round-trips, standardization, grids, scatter and reports."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrobottle import anm, dataio, datagen
from macrobottle.errors import DataError, ParseError


class TestMatrixCsv:
    def test_small_round_trip_bit_exact(self, tmp_path):
        m = np.array([[1.0 / 3.0, 2.0], [-1.7976931348623157e308, 5e-324]])
        path = tmp_path / "m.csv"
        dataio.save_matrix_csv(path, m)
        loaded, header = dataio.load_matrix_csv(path)
        assert header == ["c0", "c1"]
        assert np.array_equal(loaded, m)

    def test_pair_round_trip(self, tmp_path):
        pair = datagen.gen_main_synthetic(50, seed=0)
        dataio.save_pair(tmp_path, pair)
        loaded = dataio.load_pair_csv(tmp_path / "X.csv", tmp_path / "Y.csv")
        assert np.array_equal(loaded.x, pair.x)
        assert np.array_equal(loaded.y, pair.y)

    def test_row_count_mismatch(self, tmp_path):
        dataio.save_matrix_csv(tmp_path / "a.csv", np.zeros((3, 2)))
        dataio.save_matrix_csv(tmp_path / "b.csv", np.zeros((2, 2)))
        with pytest.raises(DataError):
            dataio.load_pair_csv(tmp_path / "a.csv", tmp_path / "b.csv")

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError) as exc:
            dataio.load_matrix_csv(path)
        assert exc.value.line == 3

    def test_wrong_column_count_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ParseError) as exc:
            dataio.load_matrix_csv(path)
        assert exc.value.line == 3

    def test_blank_line_skipped_and_later_line_numbers_kept(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1.0,2.0\n\n3.0,4.0\n")
        loaded, _ = dataio.load_matrix_csv(path)
        assert np.array_equal(loaded, [[1.0, 2.0], [3.0, 4.0]])
        path.write_text("a,b\n1.0,2.0\n\n3.0,oops\n")
        with pytest.raises(ParseError) as exc:
            dataio.load_matrix_csv(path)
        assert exc.value.line == 4

    @pytest.mark.parametrize("text", ["", "a,b\n"], ids=["empty", "header-only"])
    def test_no_data_rows_is_parse_error_on_line_one(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            dataio.load_matrix_csv(path)
        assert exc.value.line == 1

    def test_non_finite_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a\nnan\n")
        with pytest.raises(ParseError):
            dataio.load_matrix_csv(path)

    def test_seventeen_digit_text(self, tmp_path):
        m = np.array([[0.0, -0.0, 5e-324, -5e-324],
                      [1.7976931348623157e308, -1e300, 1e-300, 1.0 / 3.0]])
        path = tmp_path / "m.csv"
        dataio.save_matrix_csv(path, m, ["a", "b", "c", "d"])
        lines = ["a,b,c,d"] + [",".join(f"{v:.17g}" for v in row) for row in m]
        assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"

    def test_non_finite_rejected_on_save(self, tmp_path):
        with pytest.raises(DataError):
            dataio.save_matrix_csv(tmp_path / "m.csv", np.array([[np.inf]]))

    @pytest.mark.parametrize("header, bad", [([""], ""), (["a,b"], "a,b"), (["a", "b\nc"], "b\nc"),
                                             (["a\r", "b"], "a\r"), (["a\x1eb", "c"], "a\x1eb"),
                                             (["a", "\u2028"], "\u2028")],
                             ids=["empty", "comma", "newline", "cr", "record-separator",
                                  "line-separator"])
    def test_header_that_would_not_reload_is_data_error(self, tmp_path, header, bad):
        # [""] came back one row short, ["a,b"] as a ParseError on line 2
        m = np.array([[1.5] * len(header), [2.0] * len(header), [3.0] * len(header)])
        with pytest.raises(DataError) as exc:
            dataio.save_matrix_csv(tmp_path / "m.csv", m, header)
        assert repr(bad) in str(exc.value)
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("rows", [0, 3])
    def test_matrix_without_columns_is_data_error(self, tmp_path, rows):
        # its rows would be blank lines, and a reload finds no data rows
        with pytest.raises(DataError, match="no columns"):
            dataio.save_matrix_csv(tmp_path / "m.csv", np.zeros((rows, 0)))
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("named", [True, False], ids=["named", "unnamed"])
    @pytest.mark.parametrize("cols", [1, 64])
    @pytest.mark.parametrize("rows", [0, 1, 255, 256, 257, 513])
    def test_same_bytes_as_savetxt(self, tmp_path, rows, cols, named):
        # 256 rows are formatted per write; the sizes straddle those blocks.
        # Unnamed columns join to a line of commas for more than one column;
        # for one they join to an empty header, which savetxt leaves out and
        # a reload would read as data, so that is refused
        m = np.random.default_rng(rows * 100 + cols).normal(size=(rows, cols))
        m[::7] *= 1e-300
        m[1::5] = -0.0
        header = [f"h{j}" if named else "" for j in range(cols)]
        if header == [""]:
            with pytest.raises(DataError, match="empty header line"):
                dataio.save_matrix_csv(tmp_path / "m.csv", m, header)
            assert not (tmp_path / "m.csv").exists()
            return
        dataio.save_matrix_csv(tmp_path / "m.csv", m, header)
        np.savetxt(tmp_path / "ref.csv", m, fmt="%.17g", delimiter=",",
                   header=",".join(header), comments="", encoding="utf-8")
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_loader_matches_line_parser(self, tmp_path_factory, data):
        # the C-parser pass must give what the float() line loop gives: the
        # same bits and header, or the same ParseError on the same line
        ncols = data.draw(st.integers(1, 4), label="ncols")
        lines = [",".join(f"c{j}" for j in range(ncols))]
        for _ in range(data.draw(st.integers(0, 6), label="lines")):
            kind = data.draw(st.sampled_from(["row", "row", "row", "ragged", "blank"]))
            if kind == "blank":
                lines.append(data.draw(st.sampled_from(["", " ", "\t", " \u3000 "])))
                continue
            width = ncols if kind == "row" else data.draw(st.integers(1, 5))
            lines.append(",".join(data.draw(_CSV_TOKENS) for _ in range(width)))
        ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r", "\x0c"]),
                                  min_size=len(lines), max_size=len(lines)))
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        path.write_bytes("".join(a + b for a, b in zip(lines, ends)).encode("utf-8"))
        assert _outcome(dataio.load_matrix_csv, path) == _outcome(_load_by_lines, path)


# mostly numbers as they are written, and tokens that float() and numpy's
# parser read differently: float() alone takes 1_0 and Arabic-Indic digits,
# numpy alone strips U+001F
_CSV_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
    st.sampled_from(["1_0", " 3", "4 ", "nan", "-inf", "1e400", '"1"', "#1", "0x10",
                     "1d3", "\u0661", "", "\x1f5", "5\x1f", "\x00", "\xa06", "+.5"]))


def _load_by_lines(path):
    """The loader's reference semantics: every line through float()."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return dataio._parse_lines(path, lines[1:], len(header)), header


def _outcome(load, path):
    try:
        matrix, header = load(path)
    except ParseError as err:
        return "error", str(err), err.line
    return "matrix", matrix.shape, matrix.tobytes(), header


class TestStandardize:
    def test_already_standardized_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(500, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        y = rng.normal(size=(500, 2))
        y = (y - y.mean(axis=0)) / y.std(axis=0)
        pair = datagen.DatasetPair(x, y)
        out, stats = dataio.standardize(pair)
        assert np.abs(out.x - x).max() < 1e-12
        assert np.abs(out.y - y).max() < 1e-12

    def test_constant_column_untouched_and_flagged(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 2))
        x[:, 1] = 7.0
        pair = datagen.DatasetPair(x, rng.normal(size=(100, 2)))
        out, stats = dataio.standardize(pair)
        assert stats.x_mean[1] == 0.0 and stats.x_std[1] == 1.0
        assert np.array_equal(out.x[:, 1], x[:, 1])

    def test_inverse_recovers_originals(self):
        pair = datagen.gen_main_synthetic(200, seed=2)
        out, stats = dataio.standardize(pair)
        rx = out.x * stats.x_std + stats.x_mean
        ry = out.y * stats.y_std + stats.y_mean
        assert np.abs(rx - pair.x).max() < 1e-12
        assert np.abs(ry - pair.y).max() < 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sides_give_the_bits_of_the_joined_columns(self, seed):
        # statistics of X and Y apart equal those of the columns of [X | Y]
        pair = datagen.gen_main_synthetic(2000, seed=seed)
        pair.y = pair.y[:, :10]  # sides of different widths
        _, stats = dataio.standardize(pair)
        joined = np.hstack([pair.x, pair.y])[pair.rows(datagen.TRAIN)]
        assert np.array_equal(np.concatenate([stats.x_mean, stats.y_mean]),
                              joined.mean(axis=0))
        assert np.array_equal(np.concatenate([stats.x_std, stats.y_std]),
                              joined.std(axis=0))

    def test_train_split_statistics_used(self):
        pair = datagen.gen_main_synthetic(1000, seed=3)
        out, stats = dataio.standardize(pair)
        tr = pair.rows(datagen.TRAIN)
        assert abs(out.x[tr].mean()) < 1e-12
        # non-train rows keep slight offsets
        assert abs(out.x.mean()) > 0


def _half_means(data):
    """Stand-in macrovariables: (left-half mean, right-half mean) of each
    8x8 sample."""
    img = data.reshape(-1, 8, 8)
    return np.column_stack([img[:, :, :4].mean(axis=(1, 2)),
                            img[:, :, 4:].mean(axis=(1, 2))])


class TestAnomalyGrids:
    def test_k_equals_n_gives_zeros(self):
        pair = datagen.gen_main_synthetic(100, seed=4)
        layout = dataio.GridLayout(8, 8)
        hi, lo = dataio.anomaly_grids(pair.x, _half_means(pair.x)[:, 0], layout, k=100)
        assert np.abs(hi).max() < 1e-12
        assert np.abs(lo).max() < 1e-12

    def test_x1_neuron_localizes_left_half(self):
        pair = datagen.gen_main_synthetic(2000, seed=5)
        layout = dataio.GridLayout(8, 8)
        hi, lo = dataio.anomaly_grids(pair.x, _half_means(pair.x)[:, 0], layout, k=40)
        assert np.abs(hi[:, :4]).min() > np.abs(hi[:, 4:]).max()
        assert np.abs(lo[:, :4]).min() > np.abs(lo[:, 4:]).max()

    def test_shape_matches_layout(self, tmp_path):
        pair = datagen.gen_main_synthetic(60, seed=6)
        layout = dataio.GridLayout(8, 8)
        dataio.emit_anomaly_grid(tmp_path / "hi.csv", tmp_path / "lo.csv",
                                 pair.y, _half_means(pair.y)[:, 1], layout, k=5)
        hi, _ = dataio.load_matrix_csv(tmp_path / "hi.csv")
        assert hi.shape == (8, 8)

    def test_layout_mismatch(self):
        pair = datagen.gen_main_synthetic(10, seed=7)
        with pytest.raises(DataError):
            dataio.anomaly_grids(pair.y, _half_means(pair.y)[:, 0],
                                 dataio.GridLayout(9, 55), 5)

    def test_value_count_mismatch(self):
        pair = datagen.gen_main_synthetic(10, seed=8)
        with pytest.raises(DataError):
            dataio.anomaly_grids(pair.x, _half_means(pair.x)[:5, 0],
                                 dataio.GridLayout(8, 8), 2)

    def test_layout_json_round_trip(self, tmp_path):
        layout = dataio.GridLayout(9, 55, "zonal-wind", "sea-surface-temperature")
        layout.save(tmp_path / "layout.json")
        again = dataio.GridLayout.load(tmp_path / "layout.json")
        assert again == layout

    @pytest.mark.parametrize("doc", [
        '{"rows": 8, "cols": 8, "colour": "red"}', '{"rows": "8", "cols": 8}',
        '{"rows": 8.5, "cols": 8}', '{"rows": 0, "cols": 8}', '[8, 8]', '{rows',
        '{"rows": true, "cols": 64}', '{"rows": 8, "cols": 8, "channel_x": 3}'])
    def test_bad_layout_file_is_data_error(self, tmp_path, doc):
        (tmp_path / "layout.json").write_text(doc)
        with pytest.raises(DataError):
            dataio.GridLayout.load(tmp_path / "layout.json")


class TestResidualScatter:
    def test_row_count_and_residual_identity(self, tmp_path):
        # a real verdict's scatter, written the way `direction` writes it
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 200)
        y = np.tanh(x) + rng.uniform(-0.2, 0.2, 200)
        verdict = anm.direction_verdict(x, y, anm.AnmConfig(
            hidden=4, epochs=2, batch_size=64, fit_points=64, eval_points=64))
        path = tmp_path / "scatter.csv"
        dataio.save_matrix_csv(path, np.column_stack(list(verdict.scatter.values())),
                               list(verdict.scatter))
        m, header = dataio.load_matrix_csv(path)
        assert m.shape == (64, 16)
        assert header == list(verdict.scatter)
        for test in ("fwd_raw", "rev_raw", "fwd_transformed", "rev_transformed"):
            iv, ip, ir = (header.index(f"{test}_{c}")
                          for c in ("value", "prediction", "residual"))
            assert np.abs((m[:, iv] - m[:, ip]) - m[:, ir]).max() < 1e-12, test


class TestRunReport:
    def make_report(self):
        return dataio.RunReport(
            seed=3,
            config={"beta": 0.01},
            metrics={"informative_x": 2, "informative_y": 2,
                     "ev_y_from_x": 0.8, "ev_x_from_y": 0.79,
                     "cross_ev_y_from_x": 0.9, "cross_ev_x_from_y": float("nan"),
                     "kl_x": [0.0, 2.0], "kl_y": [1.0, np.inf],
                     "epochs_run": 10},
            timing_seconds=1.25,
            loss_history={"recon_x": [1.0, 0.5]},
        )

    def test_round_trip_and_nan_to_null(self, tmp_path):
        path = tmp_path / "report.json"
        dataio.save_report(path, self.make_report())
        doc = dataio.load_report(path)
        assert doc["metrics"]["cross_ev_x_from_y"] is None
        assert doc["metrics"]["kl_y"][1] is None
        assert doc["metrics"]["ev_y_from_x"] == 0.8

    def test_schema_rejects_malformed(self):
        with pytest.raises(Exception):
            dataio.validate_report({"schema_version": 1, "kind": "run_report"})
