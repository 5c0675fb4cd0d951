"""Dataset serialization, config files, standardization, run reports and figure data.

Matrices travel as comma-separated files with one header row and decimal
values printed at 17 significant digits, which round-trips float64 exactly.
Saving computes np.savetxt's "%.17g" text in numpy (_format_rows): the
digits of a value in %g's fixed-notation range come from an exact product
by a power of ten, the other values from % one at a time.
Loading reads the file in blocks of about 1 MB of text and parses each with
numpy's C parser, so it holds the matrix and one block, not the whole text.
When a block fails, or yields the wrong shape or a non-finite value, or a
line holds a character the two parsers split or strip differently, the
lines go one at a time through float(): that loop defines what a file may
hold and raises the ParseError that names the first bad line. A dataset
directory that save_pair writes also holds a float64 twin of X.csv and
Y.csv, the checkpoint twin/ (autodiff.save_checkpoint) with the sha256 of
both CSVs, so that load_pair parses no text the program wrote itself. It
parses the CSVs when the twin does not load or match them: a stale or
damaged twin, a user's own CSVs, or a directory from an older gen
(save_pair removes its X.npy, Y.npy and twin.json). The JSON files a
command takes as options (configs, sweeps, grid layouts) are read by
load_json_object. Run reports are JSON documents validated against a
published schema; every float in a report is finite or explicitly null.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields
from numbers import Real
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from . import autodiff as ad
from .datagen import DatasetPair
from .errors import DataError, ParseError

REPORT_SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# CSV matrices


_SAVE_BLOCK_ROWS = 256

# "%.17g" computed in numpy. A value v with 1e-4 <= |v| < 1e17 prints in %g's
# fixed notation with a decimal exponent k in [-4, 16], and its 17 digits are
# the integer round-half-even(|v| * 10**(16 - k)). 10**q is a double for
# q <= 22, and Dekker's product of two doubles is exact as hi + lo, so
# rounding hi + lo gives the correctly rounded digits that % prints. Zeros and
# every value % prints with an exponent go through % one at a time.
_FIXED_RANGE = (1e-4, 1e17)
_K_MIN, _K_MAX = -4, 16
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into 26-bit halves


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi + lo == a exactly, each of at most 26 significant bits."""
    t = a * _SPLITTER
    hi = t - (t - a)
    return hi, a - hi


_POW10 = np.array([float(10 ** q) for q in range(16 - _K_MIN + 1)])  # 10**(16 - k)
_POW10_HI, _POW10_LO = _split(_POW10)

# One row of _ROW bytes per value, which a mask cuts to the value's text. By
# byte: 1 the sign, 2-6 "0.000", 7-23 the 17 digits, 24 ".", 28-43 digits 2-17
# again, _SEP the "," or "\n" after the value. Exponent k >= 0 keeps digits
# 1..k+1 of the first copy, then the point and the other kept digits from the
# second copy; k < 0 keeps "0.", -k-1 zeros and the kept digits of the first
# copy. Digits 2-17 fill 4-byte words 2-5 and 7-10 from a 4-digit table.
_ROW = 48
_SEP = 44
_OTHER_CHARS = 24  # the longest text % gives the other values: "-1.7976931348623157e+308"
_group = np.arange(10_000)
_DIGITS4 = (np.stack([_group // 1000, _group // 100 % 10, _group // 10 % 10, _group % 10], axis=1)
            .astype(np.uint8) + ord("0")).view("<u4").ravel()  # "0000".."9999"
_ZEROS4 = sum((_group % 10 ** p == 0).astype(np.int64) for p in range(1, 5))  # of each group


def _row_masks() -> np.ndarray:
    """The bytes of a row kept, per (k, negative, digits kept), flat; kept 0 is unused."""
    masks = np.zeros((_K_MAX - _K_MIN + 1, 2, 18, _ROW), dtype=bool)
    for k in range(_K_MIN, _K_MAX + 1):
        for kept in range(1, 18):
            row = masks[k - _K_MIN, :, kept]
            row[1, 1] = True
            if k < 0:
                row[:, 2:3 - k] = True
                row[:, 7:7 + kept] = True
            else:
                row[:, 7:8 + k] = True
                if kept > k + 1:
                    row[:, 24] = True
                    row[:, 28 + k:27 + kept] = True
            row[:, _SEP] = True
    return masks.reshape(-1, _ROW)


_MASKS = _row_masks()


def _row_template(ncols: int, rows: int) -> np.ndarray:
    """The constant bytes of the value rows of `rows` matrix rows of ncols columns."""
    template = np.zeros((rows * ncols, _ROW), dtype=np.uint8)
    template[:, 1:7] = np.frombuffer(b"-0.000", dtype=np.uint8)
    template[:, 24] = ord(".")
    template[:, _SEP] = ord(",")
    template[ncols - 1::ncols, _SEP] = ord("\n")
    return template


def _exact_product(a: np.ndarray, a_split: tuple[np.ndarray, np.ndarray],
                   k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi + lo == a * 10**(16 - k) exactly (Dekker 1971)."""
    q = 16 - k
    p, p_hi, p_lo = _POW10[q], _POW10_HI[q], _POW10_LO[q]
    a_hi, a_lo = a_split
    hi = a * p
    return hi, ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo


def _format_rows(block: np.ndarray, template: np.ndarray) -> bytes:
    """The "%.17g" text of a block of finite rows, "," between values and
    "\\n" after each row; template is _row_template for at least as many rows."""
    v = block.ravel()
    a = np.abs(v)
    fixed = (a >= _FIXED_RANGE[0]) & (a < _FIXED_RANGE[1])
    a[~fixed] = 1.0  # any value in range, so the arithmetic below stays finite
    a_split = _split(a)
    k = np.clip(np.floor(np.log10(a)), _K_MIN, _K_MAX).astype(np.int64)
    hi, lo = _exact_product(a, a_split, k)
    # log10 can be one off next to a power of ten: 16 or 18 digits
    k -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    k += (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    hi, lo = _exact_product(a, a_split, k)
    # hi >= 1e16 > 2**53 is an even integer, so lo rounded half to even rounds hi + lo so
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = digits == 10 ** 17  # rounded up to 10**17: 10**16 at the next exponent
    digits[carry] = 10 ** 16
    k += carry
    top, bottom = np.divmod(digits, 10 ** 8)
    lead, g1 = np.divmod(top, 10 ** 8)
    g1, g2 = np.divmod(g1, 10 ** 4)
    g3, g4 = np.divmod(bottom, 10 ** 4)
    rows = template[:len(v)].copy()
    rows[:, 7] = lead + ord("0")
    words = rows.view("<u4")
    for j, g in enumerate((g1, g2, g3, g4)):
        words[:, 2 + j] = words[:, 7 + j] = _DIGITS4[g]
    zeros = _ZEROS4[g4]
    run = g4 == 0
    for g in (g3, g2, g1):
        zeros += run * _ZEROS4[g]
        run &= g == 0
    kept = np.maximum(17 - zeros, k + 1)
    mask = _MASKS.take(((k - _K_MIN) * 2 + (v < 0)) * 18 + kept, axis=0)
    other = np.flatnonzero(~fixed)
    if other.size:
        texts = ["%.17g" % value for value in v[other].tolist()]
        rows[other, :_OTHER_CHARS] = np.array(texts, dtype=f"S{_OTHER_CHARS}").view(
            np.uint8).reshape(-1, _OTHER_CHARS)
        mask[other] = np.arange(_ROW) < np.array([len(t) for t in texts])[:, None]
        mask[other, _SEP] = True
    return rows[mask].tobytes()


def save_matrix_csv(path: str | Path, matrix: np.ndarray,
                    header: list[str] | None = None) -> str:
    """Write the bytes np.savetxt(fmt="%.17g", delimiter=",", comments="")
    writes, formatting _SAVE_BLOCK_ROWS rows at a time in numpy (_format_rows),
    and return their sha256. Column names that load_matrix_csv could not give
    back raise DataError: one that holds a comma or a line break, or a lone
    empty name, whose empty header line a reload would read as the first
    data row. So does a matrix with no columns, whose rows would be blank
    lines that a reload skips."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DataError("save_matrix_csv expects a 2-D matrix")
    if not np.all(np.isfinite(matrix)):
        raise DataError("refusing to serialize non-finite values")
    if matrix.shape[1] == 0:
        raise DataError("refusing to serialize a matrix with no columns")
    if header is None:
        header = [f"c{j}" for j in range(matrix.shape[1])]
    if len(header) != matrix.shape[1]:
        raise DataError("header length does not match column count")
    for name in header:
        if "," in name or len(f"{name}.".splitlines()) > 1:  # "." keeps "" one line
            raise DataError(f"column name {name!r} holds a comma or a line break")
    head = ",".join(header)
    if header and not head:
        raise DataError(f"column name {header[0]!r} alone makes an empty header line")
    template = _row_template(matrix.shape[1], min(len(matrix), _SAVE_BLOCK_ROWS))
    head_line = [(head + "\n").encode("utf-8")] if head else []  # savetxt writes no empty one
    blocks = (_format_rows(matrix[start:start + _SAVE_BLOCK_ROWS], template)
              for start in range(0, len(matrix), _SAVE_BLOCK_ROWS))
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in itertools.chain(head_line, blocks):
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


_LOAD_BLOCK_CHARS = 1 << 20  # readlines hint: about 1 MB of text per parsed block
# characters that str.splitlines breaks a line on and file iteration does
# not, and U+001F, which numpy strips around a number and float() does not
_LINE_PATH_CHARS = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029"


def load_matrix_csv(path: str | Path) -> tuple[np.ndarray, list[str]]:
    """The matrix and header of a file save_matrix_csv writes. The C parser
    reads it block by block (_load_blocks); any file that path does not take
    goes line by line through _parse_lines, which defines what a file may
    hold and raises the ParseError that names the first bad line."""
    path = Path(path)
    try:
        loaded = _load_blocks(path)
    except ValueError:  # UnicodeDecodeError included
        loaded = None
    if loaded is not None:
        return loaded
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text: {err}", str(path)) from err
    lines = text.splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file", str(path), 1)
    header = lines[0].split(",")
    return _parse_lines(path, lines[1:], len(header)), header


def _load_blocks(path: Path) -> tuple[np.ndarray, list[str]] | None:
    """The matrix and header, the non-blank lines after the header parsed by
    numpy's C parser in blocks of about _LOAD_BLOCK_CHARS characters; None
    unless there is a data line, every block parses to a finite (lines x
    header width) array, and no line holds one of _LINE_PATH_CHARS."""

    def line_path_text(text: str) -> bool:
        return any(c in text for c in _LINE_PATH_CHARS)

    with open(path, encoding="utf-8") as fh:
        head = fh.readline()
        if line_path_text(head):
            return None
        header = head.removesuffix("\n").split(",")
        blocks = []
        while lines := fh.readlines(_LOAD_BLOCK_CHARS):
            if line_path_text("".join(lines)):
                return None
            body = [line for line in lines if line.strip()]
            if not body:
                continue
            block = np.loadtxt(body, dtype=np.float64, delimiter=",", comments=None,
                               quotechar=None, ndmin=2)
            if block.shape != (len(body), len(header)) or not np.isfinite(block).all():
                return None
            blocks.append(block)
    return (np.concatenate(blocks), header) if blocks else None


def _parse_lines(path: Path, lines: list[str], ncols: int) -> np.ndarray:
    """The matrix in the lines after the header, parsed by float() one line at
    a time; the first bad line raises a ParseError that names it."""
    rows = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != ncols:
            raise ParseError(f"{path}:{lineno}: expected {ncols} columns, "
                             f"got {len(parts)}", str(path), lineno)
        try:
            row = [float(p) for p in parts]
        except ValueError as err:
            raise ParseError(f"{path}:{lineno}: {err}", str(path), lineno) from err
        if not all(np.isfinite(row)):
            raise ParseError(f"{path}:{lineno}: non-finite value", str(path), lineno)
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no data rows", str(path), 1)
    return np.array(rows, dtype=np.float64)


def load_pair_csv(path_x: str | Path, path_y: str | Path) -> DatasetPair:
    """Row-aligned pair from two matrix files."""
    x, _ = load_matrix_csv(path_x)
    y, _ = load_matrix_csv(path_y)
    if x.shape[0] != y.shape[0]:
        raise DataError(f"row counts differ: {path_x} has {x.shape[0]}, "
                        f"{path_y} has {y.shape[0]}")
    return DatasetPair(x, y)


# ---------------------------------------------------------------------------
# dataset directories and their float64 twin

_PAIR_CSV = ("X.csv", "Y.csv")
_TWIN = "twin"
_HASH_BLOCK_BYTES = 1 << 20


def _file_sha256(path: Path) -> str:
    """The sha256 of a file, read _HASH_BLOCK_BYTES at a time into one buffer."""
    digest = hashlib.sha256()
    block = bytearray(_HASH_BLOCK_BYTES)
    view = memoryview(block)
    with open(path, "rb") as fh:
        while size := fh.readinto(block):
            digest.update(view[:size])
    return digest.hexdigest()


def save_pair(dirpath: str | Path, pair: DatasetPair) -> None:
    """Write X.csv and Y.csv, then their twin: the checkpoint twin/ holding
    the arrays X and Y, whose extra lists the sha256 of the bytes
    save_matrix_csv wrote for each CSV. An older gen's twin, X.npy, Y.npy
    and twin.json, is removed."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    for name in ("X.npy", "Y.npy", "twin.json"):
        (dirpath / name).unlink(missing_ok=True)
    csv_sha256 = {name: save_matrix_csv(dirpath / name, matrix)
                  for name, matrix in zip(_PAIR_CSV, (pair.x, pair.y))}
    ad.save_checkpoint(dirpath / _TWIN, {"X": pair.x, "Y": pair.y},
                       extra={"kind": "twin", "csv_sha256": csv_sha256})


def load_pair(dirpath: str | Path) -> DatasetPair:
    """The pair in a dataset directory. The matrices come from the twin that
    save_pair wrote when it loads and matches both CSVs; otherwise X.csv and
    Y.csv are parsed, with their own errors."""
    dirpath = Path(dirpath)
    pair = _load_twin(dirpath)
    return pair if pair is not None else load_pair_csv(*(dirpath / n for n in _PAIR_CSV))


def _load_twin(dirpath: Path) -> DatasetPair | None:
    """The pair from its twin; None unless the twin loads as a checkpoint
    whose extra lists the sha256 of both CSVs (hashed first, so their buffer
    is freed before the arrays are allocated), of non-empty matrices X and Y
    with the same number of rows."""
    try:
        csv_sha256 = {name: _file_sha256(dirpath / name) for name in _PAIR_CSV}
        arrays, extra = ad.load_checkpoint(dirpath / _TWIN)
        x, y = arrays["X"], arrays["Y"]
        matches = extra["csv_sha256"] == csv_sha256
    except (OSError, DataError, KeyError, TypeError):  # a missing, damaged or foreign twin
        return None
    if matches and x.ndim == y.ndim == 2 and len(x) == len(y) and 0 not in x.shape + y.shape:
        return DatasetPair(x, y)
    return None


# ---------------------------------------------------------------------------
# config files


def load_json_object(path: str | Path) -> dict:
    """The JSON object in a file; text that is not UTF-8 or not JSON, or a
    document that is not an object, is a DataError."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:  # JSONDecodeError and UnicodeDecodeError
            raise DataError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object")
    return doc


class JsonConfig:
    """Base of the config dataclasses."""

    @classmethod
    def from_dict(cls, fields: dict):
        """Config from JSON-style fields; invalid input raises DataError."""
        unknown = set(fields) - set(cls.__dataclass_fields__)
        if unknown:
            raise DataError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**fields)
        except (TypeError, ValueError, OverflowError) as err:  # an int beyond float range
            raise DataError(f"invalid {cls.__name__}: {err}") from err

    def to_dict(self) -> dict:
        """The fields, as from_dict takes them; json writes a tuple as a list."""
        return asdict(self)

    def check_numbers(self, minimums: dict[str, int]) -> None:
        """Raise ValueError unless each field named in minimums is an int (not
        a bool) of at least its minimum, a tuple field holding only such ints,
        and every float field is a finite real number (not a bool)."""
        for name, low in minimums.items():
            value = getattr(self, name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, bool) or not isinstance(v, int) or v < low:
                    raise ValueError(f"{name}: expected integers >= {low}, got {value!r}")
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "float" and (isinstance(v, bool) or not isinstance(v, Real)
                                      or not math.isfinite(v)):
                raise ValueError(f"{f.name}: expected a finite number, got {v!r}")


# ---------------------------------------------------------------------------
# standardization


@dataclass
class ColumnStats:
    """Per-column centers and scales of each side, as checkpoints store them."""

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray) -> "ColumnStats":
        """The column means and stds of the rows given (the training rows);
        a zero-variance column gets 0 and 1, so it passes through untouched."""
        stats = []
        for ref in (x, y):
            means, stds = ref.mean(axis=0), ref.std(axis=0)
            constant = stds == 0.0
            means[constant] = 0.0
            stds[constant] = 1.0
            stats += [means, stds]
        return cls(*stats)

    def apply(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Center and scale the float64 columns of x and y in place, with the
        bits of (v - mean) / std, and return them."""
        for v, mean, std in ((x, self.x_mean, self.x_std), (y, self.y_mean, self.y_std)):
            v -= mean
            v /= std
        return x, y


# ---------------------------------------------------------------------------
# grid layouts and anomaly grids


@dataclass
class GridLayout(JsonConfig):
    rows: int
    cols: int
    channel_x: str = "x"
    channel_y: str = "y"

    def __post_init__(self):
        self.check_numbers({"rows": 1, "cols": 1})
        if not all(isinstance(v, str) for v in (self.channel_x, self.channel_y)):
            raise ValueError("grid layout channel names must be strings")

    @property
    def dim(self) -> int:
        return self.rows * self.cols

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def load(cls, path: str | Path) -> "GridLayout":
        return cls.from_dict(load_json_object(path))


def anomaly_grids(data: np.ndarray, values: np.ndarray, layout: GridLayout,
                  k: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean row of `data` over the k samples with the highest (and,
    separately, the lowest) value of one macrovariable column `values`,
    minus the mean row, shaped to the grid layout."""
    n = len(data)
    if data.shape[1] != layout.dim:
        raise DataError(f"layout {layout.rows}x{layout.cols} does not match "
                        f"sample dimensionality {data.shape[1]}")
    if len(values) != n:
        raise DataError(f"{len(values)} macrovariable values for {n} samples")
    if not 1 <= k <= n:
        raise DataError(f"k must be in [1, {n}], got {k}")
    order = np.argsort(values, kind="stable")
    base = data.mean(axis=0)
    lo = data[order[:k]].mean(axis=0) - base
    hi = data[order[-k:]].mean(axis=0) - base
    shape = (layout.rows, layout.cols)
    return hi.reshape(shape), lo.reshape(shape)


# ---------------------------------------------------------------------------
# run reports

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "kind", "seed", "config", "metrics",
                 "timing_seconds"],
    "properties": {
        "schema_version": {"const": REPORT_SCHEMA_VERSION},
        "kind": {"const": "run_report"},
        "seed": {"type": "integer"},
        "config": {"type": "object"},
        "timing_seconds": {"type": ["number", "null"]},
        "metrics": {
            "type": "object",
            "required": ["informative_x", "informative_y", "ev_y_from_x",
                         "ev_x_from_y", "cross_ev_y_from_x", "cross_ev_x_from_y",
                         "kl_x", "kl_y", "epochs_run"],
            "properties": {
                "informative_x": {"type": "integer"},
                "informative_y": {"type": "integer"},
                "ev_y_from_x": {"type": ["number", "null"]},
                "ev_x_from_y": {"type": ["number", "null"]},
                "cross_ev_y_from_x": {"type": ["number", "null"]},
                "cross_ev_x_from_y": {"type": ["number", "null"]},
                "kl_x": {"type": "array", "items": {"type": ["number", "null"]}},
                "kl_y": {"type": "array", "items": {"type": ["number", "null"]}},
                "epochs_run": {"type": "integer"},
            },
        },
        "loss_history": {
            "type": "object",
            "additionalProperties": {"type": "array",
                                     "items": {"type": ["number", "null"]}},
        },
        "pair_table": {"type": "array", "items": {"type": "object"}},
        "verdicts": {"type": "array", "items": {"type": "object"}},
    },
}


@dataclass
class RunReport:
    seed: int
    config: dict
    metrics: dict
    timing_seconds: float | None = None
    loss_history: dict = field(default_factory=dict)
    pair_table: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    schema_version: int = REPORT_SCHEMA_VERSION
    kind: str = "run_report"

    def to_dict(self) -> dict:
        return _sanitize_floats(asdict(self))


def _sanitize_floats(obj):
    """Replace non-finite floats by null, recursively."""
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize_floats(v) for v in obj]
    return obj


_REPORT_VALIDATOR = Draft202012Validator(REPORT_SCHEMA)


def validate_report(doc: dict) -> None:
    """Raise the ValidationError jsonschema.validate would raise for a
    document that does not follow REPORT_SCHEMA."""
    error = best_match(_REPORT_VALIDATOR.iter_errors(doc))
    if error is not None:
        raise error


def save_report(path: str | Path, report: RunReport) -> None:
    doc = report.to_dict()
    validate_report(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def load_report(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    validate_report(doc)
    return doc
