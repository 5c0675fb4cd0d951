"""Dataset serialization, config files, standardization, run reports and figure data.

Matrices travel as comma-separated files with one header row and decimal
values printed at 17 significant digits, which round-trips float64 exactly.
Loading reads the file in blocks of about 1 MB of text and parses each with
numpy's C parser, so it holds the matrix and one block, not the whole text.
When a block fails, or yields the wrong shape or a non-finite value, or a
line holds a character the two parsers split or strip differently, the
lines go one at a time through float(): that loop defines what a file may
hold and raises the ParseError that names the first bad line. The JSON
files a command takes as options (configs, sweeps, grid layouts) are read
by load_json_object. Run reports are JSON documents validated against a
published schema; every float in a report is finite or explicitly null.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from numbers import Real
from pathlib import Path

import numpy as np
from jsonschema import validate as _validate_schema

from .datagen import TRAIN, DatasetPair, GroundTruth
from .errors import DataError, ParseError

REPORT_SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# CSV matrices


_SAVE_BLOCK_ROWS = 256


def save_matrix_csv(path: str | Path, matrix: np.ndarray,
                    header: list[str] | None = None) -> None:
    """Write the bytes np.savetxt(fmt="%.17g", delimiter=",", comments="")
    writes, formatting and writing _SAVE_BLOCK_ROWS rows at a time. Column
    names that load_matrix_csv could not give back raise DataError: one that
    holds a comma or a line break, or a lone empty name, whose empty header
    line a reload would read as the first data row. So does a matrix with no
    columns, whose rows would be blank lines that a reload skips."""
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
    row = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        if head:  # savetxt writes no empty header line
            fh.write(head + "\n")
        for start in range(0, len(matrix), _SAVE_BLOCK_ROWS):
            block = matrix[start:start + _SAVE_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


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
    """Row-aligned pair from two matrix files; split is left unassigned."""
    x, _ = load_matrix_csv(path_x)
    y, _ = load_matrix_csv(path_y)
    if x.shape[0] != y.shape[0]:
        raise DataError(f"row counts differ: {path_x} has {x.shape[0]}, "
                        f"{path_y} has {y.shape[0]}")
    return DatasetPair(x, y)


def save_pair(dirpath: str | Path, pair: DatasetPair) -> None:
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    save_matrix_csv(dirpath / "X.csv", pair.x)
    save_matrix_csv(dirpath / "Y.csv", pair.y)


def save_ground_truth(path: str | Path, truth: GroundTruth,
                      split: np.ndarray | None = None) -> None:
    cols = truth.column_names()
    matrix = truth.as_matrix()
    if split is not None:
        cols = cols + ["split"]
        matrix = np.column_stack([matrix, split.astype(np.float64)])
    save_matrix_csv(path, matrix, cols)


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
    """Base of the config dataclasses. REMOVED_FIELDS maps the fields of
    removed variants, which older files carry, to the value that meant the
    kept path; from_dict drops such a field at that value."""

    REMOVED_FIELDS: dict = {}

    @classmethod
    def from_dict(cls, fields: dict):
        """Config from JSON-style fields; invalid input raises DataError."""
        fields = dict(fields)
        for key, kept in cls.REMOVED_FIELDS.items():
            value = fields.pop(key, kept)
            if (list(value) if isinstance(value, tuple) else value) != kept:
                raise DataError(f"{key}={value!r} selects a removed variant; "
                                f"only {kept!r} is supported")
        unknown = set(fields) - set(cls.__dataclass_fields__)
        if unknown:
            raise DataError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**fields)
        except (TypeError, ValueError, OverflowError) as err:  # an int beyond float range
            raise DataError(f"invalid {cls.__name__}: {err}") from err

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

    def apply(self, pair: DatasetPair) -> DatasetPair:
        """The pair centered and scaled column by column."""
        x = (pair.x - self.x_mean) / self.x_std
        y = (pair.y - self.y_mean) / self.y_std
        return DatasetPair(x, y, pair.split, pair.ground_truth)


def _center_scale(ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and stds of ref; a zero-variance column gets 0 and 1."""
    means = ref.mean(axis=0)
    stds = ref.std(axis=0)
    constant = stds == 0.0
    means[constant] = 0.0
    stds[constant] = 1.0
    return means, stds


def standardize(pair: DatasetPair) -> tuple[DatasetPair, ColumnStats]:
    """Center/scale every column by its train-split statistics (all rows if
    no split is assigned); zero-variance columns pass through untouched."""
    if pair.split is not None:
        ref_rows = pair.rows(TRAIN)
        if len(ref_rows) == 0:
            raise DataError("standardize needs a non-empty train split")
    else:
        ref_rows = np.arange(pair.n)
    stats = ColumnStats(*_center_scale(pair.x[ref_rows]), *_center_scale(pair.y[ref_rows]))
    return stats.apply(pair), stats


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
            json.dump(asdict(self), fh, indent=2)

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


def emit_anomaly_grid(path_high: str | Path, path_low: str | Path,
                      data: np.ndarray, values: np.ndarray, layout: GridLayout,
                      k: int) -> None:
    hi, lo = anomaly_grids(data, values, layout, k)
    header = [f"c{j}" for j in range(layout.cols)]
    save_matrix_csv(path_high, hi, header)
    save_matrix_csv(path_low, lo, header)


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
    if isinstance(obj, (np.floating, np.integer)):
        return _sanitize_floats(obj.item())
    if isinstance(obj, np.ndarray):
        return _sanitize_floats(obj.tolist())
    if isinstance(obj, dict):
        return {k: _sanitize_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize_floats(v) for v in obj]
    return obj


def validate_report(doc: dict) -> None:
    _validate_schema(doc, REPORT_SCHEMA)


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
