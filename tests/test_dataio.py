"""Serialization round-trips, standardization, grids, scatter and reports."""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator, ValidationError

from macrobottle import anm, cae, cli, dataio, datagen
from macrobottle import autodiff as ad
from macrobottle.errors import DataError, ParseError


# numbers as they are written, and tokens that float() and numpy's parser
# read differently: float() alone takes 1_0 and Arabic-Indic digits, numpy
# alone strips U+001F and the line breaks of str.splitlines that file
# iteration does not break on
_NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v)
_ODD_TOKENS = st.sampled_from(
    ["1_0", " 3", "4 ", "nan", "-inf", "1e400", '"1"', "#1", "0x10", "1d3", "\u0661", "",
     "\x1f5", "5\x1f", "\x00", "\xa06", "+.5"]
    + [f"1{c}" for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"])
_ODD_LINES = st.sampled_from(["", " ", "\t", " \u3000 "]).map(str.encode) | st.just(b"1\xff")
_ODD_ENDS = st.sampled_from(["\x0c", "\x0b", "\x1e", "\x85", "\u2029"]).map(str.encode)


def _ulps_from(v: float, steps: int) -> float:
    for _ in range(abs(steps)):
        v = math.nextafter(v, math.inf if steps > 0 else -math.inf)
    return v


def _signed(values):
    return st.tuples(values, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


# any finite double, and drawn often: the range save_matrix_csv prints in
# fixed notation by its own arithmetic, powers of ten up to 3 ulps away (where
# log10 misjudges the exponent), and exact ties of the 17th digit, which
# round half to even: m + 1/4 has 16 integer digits, m + 1/8 has 15
_SAVETXT_VALUES = (
    st.floats(allow_nan=False, allow_infinity=False)
    | _signed(st.floats(1e-4, 1e17, exclude_max=True))
    | _signed(st.tuples(st.integers(-6, 18), st.integers(-3, 3)).map(
        lambda t: _ulps_from(float(f"1e{t[0]}"), t[1])))
    | _signed(st.tuples(st.integers(10 ** 15, 2 ** 51 - 1), st.sampled_from([1, 3])).map(
        lambda t: t[0] + t[1] / 4))
    | _signed(st.tuples(st.integers(10 ** 14, 2 ** 47 - 1), st.sampled_from([1, 3, 5, 7])).map(
        lambda t: t[0] + t[1] / 8)))


@st.composite
def _csv_files(draw):
    """(file bytes, load block size in characters): a header and up to 40
    rows of numbers with mixed line ends, then up to three changes anywhere,
    header included: an odd token, a ragged row, a blank or undecodable
    line, or a line end that only str.splitlines breaks on."""
    ncols = draw(st.integers(1, 4), label="ncols")
    lines = [[f"c{j}" for j in range(ncols)]] + [
        [draw(_NUMBERS) for _ in range(ncols)] for _ in range(draw(st.integers(0, 40), label="rows"))]
    lines = [",".join(tokens).encode() for tokens in lines]
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]),
                         min_size=len(lines), max_size=len(lines)))
    for _ in range(draw(st.integers(0, 3), label="changes")):
        i = draw(st.integers(0, len(lines) - 1), label="line")
        change = draw(st.sampled_from(["token", "ragged", "line", "end"]))
        if change == "token":
            tokens = lines[i].split(b",")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_ODD_TOKENS).encode()
            lines[i] = b",".join(tokens)
        elif change == "ragged":
            lines[i] = ",".join(draw(_NUMBERS) for _ in range(draw(st.integers(1, 5)))).encode()
        elif change == "line":
            lines[i] = draw(_ODD_LINES)
        else:
            ends[i] = draw(_ODD_ENDS)
    return b"".join(a + b for a, b in zip(lines, ends)), draw(st.integers(1, 64), label="block")


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

    def test_block_of_blank_lines_is_skipped_by_the_block_loader(self, tmp_path, monkeypatch):
        # one whole load block holds only blank lines; the C-parser path skips
        # it, with no fall-back to the line parser
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1.0,2.0\n" + "\n" * (2 * dataio._LOAD_BLOCK_CHARS) + "3.0,4.0\n")
        monkeypatch.setattr(dataio, "_parse_lines",
                            lambda *args: pytest.fail("the line parser ran"))
        loaded, header = dataio.load_matrix_csv(path)
        assert header == ["a", "b"] and np.array_equal(loaded, [[1.0, 2.0], [3.0, 4.0]])

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

    @pytest.mark.parametrize("matrix, header, message", [
        (np.ones(3), None, "expects a 2-D matrix"),
        (np.ones((3, 2)), ["a"], "header length does not match column count")],
        ids=["one-dimensional", "header-too-short"])
    def test_matrix_or_header_of_another_shape_is_data_error(self, tmp_path, matrix, header,
                                                             message):
        with pytest.raises(DataError, match=message):
            dataio.save_matrix_csv(tmp_path / "m.csv", matrix, header)
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
    @given(_csv_files())
    @example((b"a\n" + b"0.5\n" * 4000 + b"1\xff\n", 64))  # not UTF-8 after the first block
    @example((b"a\n" + b"0.5\n" * 4000 + b"1e400\n", 64))  # non-finite after the first block
    @example((b"a\n0.5\n\x1f5\n", 64))  # numpy alone reads 5
    @example((b"a,b\n1,2\n3\x0b,4\n", 64))  # numpy alone reads one row of two
    @example((b"a\x0bb\n1\n", 64))  # a header of two lines, numpy alone reads one
    def test_loader_matches_line_parser(self, tmp_path_factory, file):
        # the C-parser blocks must give what the float() line loop gives: the
        # same bits and header, or the same ParseError on the same line. The
        # load block shrinks to a few characters, so blank lines, line ends
        # and bad tokens fall on both sides of a block edge
        content, block = file
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        path.write_bytes(content)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "_LOAD_BLOCK_CHARS", block)
            assert _outcome(dataio.load_matrix_csv, path) == _outcome(_load_by_lines, path)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_SAVETXT_VALUES, min_size=1, max_size=64), st.integers(1, 70),
           st.integers(1, 2 * dataio._SAVE_BLOCK_ROWS + 1))
    @example([9.9999999999999995e-07], 1, 1)  # %g's exponent notation below 1e-4
    @example([1e-4, math.nextafter(1e-4, 0.0)], 2, 1)  # either side of the fixed range
    @example([1e17, math.nextafter(1e17, 0.0)], 2, 1)
    @example([1e-14], 1, 1)  # below 10**-14, and rounds up to it at 17 digits
    @example([0.1, -2.5, 1e16 + 2], 70, dataio._SAVE_BLOCK_ROWS + 1)
    def test_same_bytes_as_savetxt_for_any_finite_value(self, tmp_path_factory, values,
                                                        ncols, nrows):
        # the numpy formatter must print every finite double as % does; the
        # drawn values fill the matrix in turn, so few draws cover many blocks
        m = np.resize(np.array(values), nrows * ncols).reshape(nrows, ncols)
        d = tmp_path_factory.mktemp("savetxt")
        dataio.save_matrix_csv(d / "m.csv", m)
        np.savetxt(d / "ref.csv", m, fmt="%.17g", delimiter=",", comments="",
                   header=",".join(f"c{j}" for j in range(ncols)))
        assert (d / "m.csv").read_bytes() == (d / "ref.csv").read_bytes()

    def test_returns_the_sha256_of_the_bytes_written(self, tmp_path):
        m = np.random.default_rng(3).normal(size=(300, 5))
        digest = dataio.save_matrix_csv(tmp_path / "m.csv", m)
        assert digest == hashlib.sha256((tmp_path / "m.csv").read_bytes()).hexdigest()

    def test_load_peak_memory_follows_the_matrix(self, tmp_path):
        # room for the matrix, its parsed blocks and one block of text; a load
        # that holds the whole text and one string per line reads 6.3x
        m = np.random.default_rng(7).normal(size=(10_000, 64))
        dataio.save_matrix_csv(tmp_path / "m.csv", m)
        tracemalloc.start()
        try:
            loaded, _ = dataio.load_matrix_csv(tmp_path / "m.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded, m)
        assert peak <= 3 * m.nbytes


def _load_by_lines(path):
    """The loader's reference semantics: the whole file decoded, then every
    line through float()."""
    try:
        lines = path.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text: {err}", str(path)) from err
    header = lines[0].split(",")
    return dataio._parse_lines(path, lines[1:], len(header)), header


def _outcome(load, path):
    try:
        matrix, header = load(path)
    except ParseError as err:
        return "error", str(err), err.line
    return "matrix", matrix.shape, matrix.tobytes(), header


_PAIR_FILES = ("X.csv", "Y.csv", "twin/params.bin", "twin/manifest.json")


@st.composite
def _pair_dir_changes(draw):
    """One change to a save_pair directory: a byte flipped or a file
    truncated (any file), a file deleted, a line appended to X.csv, or X.csv
    rewritten with another matrix of the same shape."""
    kind = draw(st.sampled_from(["flip", "truncate", "delete", "append", "swap"]))
    if kind in ("flip", "truncate", "delete"):
        return kind, draw(st.sampled_from(_PAIR_FILES)), draw(st.integers(0, 1 << 20)), \
            draw(st.integers(1, 255))
    if kind == "append":
        return kind, draw(st.sampled_from(["0.5,1,2", "0.5,1", "oops", "", "nan,1,2"]))
    return kind, draw(st.integers(0, 2**32 - 1))


def _apply_change(d, change):
    kind, *args = change
    if kind in ("flip", "truncate"):
        name, offset, mask = args
        data = bytearray((d / name).read_bytes())
        offset %= len(data)
        if kind == "flip":
            data[offset] ^= mask
        else:
            del data[offset:]
        (d / name).write_bytes(bytes(data))
    elif kind == "delete":
        (d / args[0]).unlink()
    elif kind == "append":
        with open(d / "X.csv", "a", encoding="utf-8") as fh:
            fh.write(args[0] + "\n")
    else:
        x, header = dataio.load_matrix_csv(d / "X.csv")
        other = np.random.default_rng(args[0]).normal(size=x.shape)
        dataio.save_matrix_csv(d / "X.csv", other, header)


def _pair_outcome(load):
    try:
        pair = load()
    except Exception as err:  # the text parse's own errors, whatever their type
        return "error", type(err), str(err)
    return "pair", pair.x.dtype, pair.x.shape, pair.x.tobytes(), pair.y.shape, pair.y.tobytes()


class TestPairTwin:
    @staticmethod
    def saved(d, seed=0, rows=6):
        rng = np.random.default_rng(seed)
        pair = datagen.DatasetPair(rng.normal(size=(rows, 3)), rng.normal(size=(rows, 2)))
        dataio.save_pair(d, pair)
        return pair

    def test_pair_writes_a_float64_twin(self, tmp_path):
        pair = self.saved(tmp_path)
        arrays, extra = ad.load_checkpoint(tmp_path / "twin")
        assert np.array_equal(arrays["X"], pair.x) and np.array_equal(arrays["Y"], pair.y)
        assert (tmp_path / "twin" / "params.bin").read_bytes() == \
            pair.x.astype("<f8").tobytes() + pair.y.astype("<f8").tobytes()
        assert extra == {"kind": "twin", "csv_sha256": {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("X.csv", "Y.csv")}}

    def test_matching_twin_parses_no_text(self, tmp_path, monkeypatch):
        pair = self.saved(tmp_path)

        def no_parse(path):
            raise AssertionError(f"parsed {path}")

        monkeypatch.setattr(dataio, "load_matrix_csv", no_parse)
        loaded = dataio.load_pair(tmp_path)
        assert np.array_equal(loaded.x, pair.x) and np.array_equal(loaded.y, pair.y)
        assert loaded.x.flags.c_contiguous and loaded.x.dtype == np.float64
        with pytest.raises(AssertionError, match="parsed"):
            dataio.load_pair_csv(tmp_path / "X.csv", tmp_path / "Y.csv")

    @settings(max_examples=150, deadline=None)
    @given(_pair_dir_changes(), st.integers(1, 4))
    @example(("flip", "twin/manifest.json", 0, 1), 6)  # a manifest that is not JSON
    @example(("truncate", "twin/params.bin", 100, 1), 6)  # inside X's values
    @example(("delete", "twin/manifest.json", 0, 1), 6)
    @example(("append", "0.5,1,2"), 6)  # one more X row than Y rows
    @example(("swap", 1), 6)
    def test_any_change_loads_what_the_text_parse_loads(self, tmp_path_factory, change,
                                                        rows):
        # the twin either matches every digest and shape and gives the text
        # parse's bits, or it is ignored and the text parse speaks: its
        # arrays, or its error type and message
        d = tmp_path_factory.mktemp("pair")
        self.saved(d, rows=rows)
        _apply_change(d, change)
        assert _pair_outcome(lambda: dataio.load_pair(d)) == \
            _pair_outcome(lambda: dataio.load_pair_csv(d / "X.csv", d / "Y.csv"))

    @pytest.mark.parametrize("shape", [[6], [6, 3, 1], [0, 3], [6, True], [6.0, 3], "63",
                                       [2**40, 2**40]])
    def test_manifest_with_another_shape_falls_back(self, tmp_path, monkeypatch, shape):
        # the manifest's own digest made anew, so the shape reaches the checks
        self.saved(tmp_path)
        path = tmp_path / "twin" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["arrays"][0]["shape"] = shape  # X's
        manifest["manifest_sha256"] = ad._manifest_digest(manifest)
        path.write_text(json.dumps(manifest))
        parsed = []
        load = dataio.load_matrix_csv
        monkeypatch.setattr(dataio, "load_matrix_csv",
                            lambda path: parsed.append(path.name) or load(path))
        dataio.load_pair(tmp_path)
        assert parsed == ["X.csv", "Y.csv"]

    def test_manifest_with_an_array_numpy_cannot_hold_falls_back(self, tmp_path, monkeypatch):
        # an extra empty array of shape [2**64, 0] leaves the blob's size right
        pair = self.saved(tmp_path)
        path = tmp_path / "twin" / "manifest.json"
        manifest = json.loads(path.read_text())
        end = 8 * (pair.x.size + pair.y.size)
        manifest["arrays"].append({"name": "Z", "shape": [2**64, 0], "offset": end})
        manifest["manifest_sha256"] = ad._manifest_digest(manifest)
        path.write_text(json.dumps(manifest))
        parsed = []
        load = dataio.load_matrix_csv
        monkeypatch.setattr(dataio, "load_matrix_csv",
                            lambda path: parsed.append(path.name) or load(path))
        loaded = dataio.load_pair(tmp_path)
        assert parsed == ["X.csv", "Y.csv"]
        assert loaded.x.tobytes() == pair.x.tobytes() and loaded.y.tobytes() == pair.y.tobytes()


    def test_old_layout_loads_the_csvs_until_gen_writes_the_twin(self, tmp_path,
                                                                   monkeypatch):
        # X.npy, Y.npy and twin.json as an older gen wrote them, digests and all
        pair = self.saved(tmp_path)
        shutil.rmtree(tmp_path / "twin")
        manifest = {}
        for name, matrix in (("X", pair.x), ("Y", pair.y)):
            np.save(tmp_path / f"{name}.npy", matrix)
            manifest[f"{name}.csv"] = {
                "sha256": hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest(),
                "twin_sha256": hashlib.sha256(
                    (tmp_path / f"{name}.npy").read_bytes()).hexdigest(),
                "shape": list(matrix.shape)}
        (tmp_path / "twin.json").write_text(json.dumps(manifest))
        parsed = []
        load = dataio.load_matrix_csv
        monkeypatch.setattr(dataio, "load_matrix_csv",
                            lambda path: parsed.append(path.name) or load(path))
        loaded = dataio.load_pair(tmp_path)
        assert parsed == ["X.csv", "Y.csv"]
        assert loaded.x.tobytes() == pair.x.tobytes() and loaded.y.tobytes() == pair.y.tobytes()
        assert cli.main(["gen", "--n", "50", "--seed", "4", "--out", str(tmp_path)]) == 0
        assert not any((tmp_path / name).exists() for name in ("X.npy", "Y.npy", "twin.json"))
        parsed.clear()
        regenerated = dataio.load_pair(tmp_path)
        assert parsed == []
        assert np.array_equal(regenerated.x, datagen.gen_main_synthetic(50, 4).x)


def standardize(x, y, rows=slice(None)):
    """Copies of x and y standardized in place with the statistics of the
    given rows, and those statistics, as train_cae treats its gathers."""
    stats = dataio.ColumnStats.fit(x[rows], y[rows])
    return stats.apply(x.copy(), y.copy()), stats


def train_rows(n: int) -> np.ndarray:
    """The rows a model of CaeConfig's default seed trains on."""
    return cae.split_rows(n, cae.CaeConfig().seed)[0]


class TestStandardize:
    def test_already_standardized_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(500, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        y = rng.normal(size=(500, 2))
        y = (y - y.mean(axis=0)) / y.std(axis=0)
        (out_x, out_y), stats = standardize(x, y)
        assert np.abs(out_x - x).max() < 1e-12
        assert np.abs(out_y - y).max() < 1e-12

    def test_constant_column_untouched_and_flagged(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 2))
        x[:, 1] = 7.0
        (out_x, _), stats = standardize(x, rng.normal(size=(100, 2)))
        assert stats.x_mean[1] == 0.0 and stats.x_std[1] == 1.0
        assert np.array_equal(out_x[:, 1], x[:, 1])

    def test_inverse_recovers_originals(self):
        pair = datagen.gen_main_synthetic(200, seed=2)
        (out_x, out_y), stats = standardize(pair.x, pair.y, train_rows(200))
        rx = out_x * stats.x_std + stats.x_mean
        ry = out_y * stats.y_std + stats.y_mean
        assert np.abs(rx - pair.x).max() < 1e-12
        assert np.abs(ry - pair.y).max() < 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sides_give_the_bits_of_the_joined_columns(self, seed):
        # statistics of X and Y apart equal those of the columns of [X | Y]
        pair = datagen.gen_main_synthetic(2000, seed=seed)
        y = pair.y[:, :10]  # sides of different widths
        tr = train_rows(2000)
        _, stats = standardize(pair.x, y, tr)
        joined = np.hstack([pair.x, y])[tr]
        assert np.array_equal(np.concatenate([stats.x_mean, stats.y_mean]),
                              joined.mean(axis=0))
        assert np.array_equal(np.concatenate([stats.x_std, stats.y_std]),
                              joined.std(axis=0))

    def test_train_split_statistics_used(self):
        # the statistics a trained model carries are those of the TRAIN rows
        pair = datagen.gen_main_synthetic(1000, seed=3)
        model, _ = cae.train_cae(pair, cae.CaeConfig(epochs=0))
        tr = train_rows(1000)
        (out_x, _), stats = standardize(pair.x, pair.y, tr)
        for name, value in vars(model.stats).items():
            assert np.array_equal(value, getattr(stats, name)), name
        assert abs(out_x[tr].mean()) < 1e-12
        # non-train rows keep slight offsets
        assert abs(out_x.mean()) > 0


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
        for grid in dataio.anomaly_grids(pair.y, _half_means(pair.y)[:, 1], layout, k=5):
            dataio.save_matrix_csv(tmp_path / "grid.csv", grid)  # as inspect writes it
            again, header = dataio.load_matrix_csv(tmp_path / "grid.csv")
            assert again.shape == (8, 8) and header == [f"c{j}" for j in range(8)]

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

    def test_schema_is_a_valid_schema(self):
        # validate_report builds its validator once and skips this check
        Draft202012Validator.check_schema(dataio.REPORT_SCHEMA)

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(schema_version=1),
        lambda d: d.pop("metrics"),
        lambda d: d["metrics"].update(kl_x=["a"]),
        lambda d: d["metrics"].update(informative_x=1.5, epochs_run="x"),
        lambda d: d.update(loss_history={"recon_x": [1, "a"]}, seed=None),
    ])
    def test_error_is_the_one_jsonschema_validate_raises(self, edit):
        doc = self.make_report().to_dict()
        edit(doc)
        with pytest.raises(ValidationError) as expected:
            jsonschema.validate(doc, dataio.REPORT_SCHEMA)
        with pytest.raises(ValidationError) as raised:
            dataio.validate_report(doc)
        assert str(raised.value) == str(expected.value)
        assert raised.value.path == expected.value.path
