"""Property checks of the lossless round trips the file formats promise:
matrix CSVs and checkpoints give back the exact bits they were given, and a
matrix CSV the column names it was saved with; a truncated or byte-flipped
checkpoint is a DataError, a truncated or byte-flipped matrix CSV a DataError
or a matrix as wide as its header, a damaged grid layout a DataError or a
valid GridLayout, and a damaged run report a dict or one of the errors a
report reader catches, never another exception."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from jsonschema import ValidationError

from macrobottle import autodiff as ad
from macrobottle import dataio
from macrobottle.errors import DataError

SETTINGS = settings(max_examples=60, deadline=None)

finite_matrices = arrays(
    np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False, width=64))

named_arrays = st.dictionaries(
    st.text(max_size=12),
    arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
           elements=st.floats(width=64)),
    max_size=5)

nonempty_arrays = st.dictionaries(
    st.text(max_size=12),
    arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=4),
           elements=st.floats(width=64)),
    min_size=1, max_size=5)


@SETTINGS
@given(finite_matrices)
def test_matrix_csv_round_trip_is_bit_exact(matrix):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        dataio.save_matrix_csv(path, matrix)
        loaded, _ = dataio.load_matrix_csv(path)
    assert loaded.shape == matrix.shape
    assert loaded.tobytes() == matrix.tobytes()


def _loads_as_wide_as_header_or_data_error(path: Path) -> None:
    try:
        loaded, header = dataio.load_matrix_csv(path)
    except DataError:  # ParseError included
        return
    assert loaded.ndim == 2 and loaded.shape[1] == len(header) and loaded.shape[0] >= 1
    assert np.isfinite(loaded).all()


@SETTINGS
@given(finite_matrices, st.data())
def test_truncated_matrix_csv_is_data_error_or_a_matrix(matrix, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        dataio.save_matrix_csv(path, matrix)
        raw = path.read_bytes()
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="length")])
        _loads_as_wide_as_header_or_data_error(path)


@SETTINGS
@given(finite_matrices, st.data())
def test_flipped_matrix_csv_byte_is_data_error_or_a_matrix(matrix, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        dataio.save_matrix_csv(path, matrix)
        raw = bytearray(path.read_bytes())
        raw[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= data.draw(
            st.integers(1, 255), label="mask")
        path.write_bytes(bytes(raw))
        _loads_as_wide_as_header_or_data_error(path)


# any character, with commas and every line break str.splitlines knows drawn often
header_names = st.text(st.characters() | st.sampled_from(",\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
                       max_size=4)


@SETTINGS
@given(finite_matrices, st.data())
def test_accepted_header_reloads_with_the_same_names_and_rows(matrix, data):
    header = data.draw(st.lists(header_names, min_size=matrix.shape[1],
                                max_size=matrix.shape[1]), label="header")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        try:
            dataio.save_matrix_csv(path, matrix, header)
        except DataError as err:  # a refusal names the column it refuses
            assert any(repr(name) in str(err) for name in header)
            return
        loaded, names = dataio.load_matrix_csv(path)
    assert names == header
    assert loaded.shape == matrix.shape
    assert loaded.tobytes() == matrix.tobytes()


def _damaged(path: Path, data) -> None:
    """Truncate the file at any byte, or flip the bits of one byte under a
    non-zero mask."""
    raw = bytearray(path.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        raw[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= data.draw(
            st.integers(1, 255), label="mask")
    path.write_bytes(bytes(raw))


layouts = st.builds(dataio.GridLayout, st.integers(1, 10**6), st.integers(1, 10**6),
                    st.text(max_size=6), st.text(max_size=6))


@SETTINGS
@given(layouts, st.data())
def test_damaged_layout_is_data_error_or_a_layout(layout, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "layout.json"
        layout.save(path)
        _damaged(path, data)
        try:
            loaded = dataio.GridLayout.load(path)
        except DataError:
            return
    assert isinstance(loaded, dataio.GridLayout)
    assert all(type(v) is int and v >= 1 for v in (loaded.rows, loaded.cols))
    assert all(type(v) is str for v in (loaded.channel_x, loaded.channel_y))


reports = st.builds(
    lambda seed, values, name: dataio.RunReport(
        seed=seed, config={"beta": 0.01, "name": name},
        metrics={"informative_x": 2, "informative_y": 1, "ev_y_from_x": values[0],
                 "ev_x_from_y": values[-1], "cross_ev_y_from_x": None,
                 "cross_ev_x_from_y": 0.5, "kl_x": values, "kl_y": values[::-1],
                 "epochs_run": 3},
        timing_seconds=values[0], loss_history={"recon_x": values}),
    st.integers(0, 2**32 - 1), st.lists(st.floats(width=64), min_size=1, max_size=4),
    st.text(max_size=6))


@SETTINGS
@given(reports, st.data())
def test_damaged_report_is_a_dict_or_a_caught_error(report, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        dataio.save_report(path, report)
        _damaged(path, data)
        try:
            doc = dataio.load_report(path)
        except (ValueError, ValidationError):  # JSON and UTF-8 errors are ValueErrors
            return
    assert isinstance(doc, dict)


@SETTINGS
@given(named_arrays, st.dictionaries(st.text(max_size=6), st.integers(), max_size=3))
def test_checkpoint_round_trip_is_bit_exact(arrays_in, extra):
    with tempfile.TemporaryDirectory() as tmp:
        ad.save_checkpoint(tmp, arrays_in, extra)
        arrays_out, extra_out = ad.load_checkpoint(tmp)
    assert extra_out == extra
    assert sorted(arrays_out) == sorted(arrays_in)
    for name, a in arrays_in.items():
        assert arrays_out[name].shape == a.shape
        assert arrays_out[name].tobytes() == a.tobytes()


def _saved_checkpoint(tmp: str, arrays_in: dict, extra: dict) -> tuple[Path, Path]:
    ad.save_checkpoint(tmp, arrays_in, extra)
    return Path(tmp) / "params.bin", Path(tmp) / "manifest.json"


def _loads_same_or_data_error(tmp: str, arrays_in: dict, extra: dict) -> None:
    """A damaged checkpoint either raises DataError or, where the damage left
    its content intact (such as JSON whitespace turned into other
    whitespace), loads the arrays and extra that were saved; nothing else."""
    try:
        arrays_out, extra_out = ad.load_checkpoint(tmp)
    except DataError:
        return
    assert extra_out == extra
    assert sorted(arrays_out) == sorted(arrays_in)
    for name, a in arrays_in.items():
        assert arrays_out[name].shape == a.shape
        assert arrays_out[name].tobytes() == a.tobytes()


@SETTINGS
@given(nonempty_arrays, st.data())
def test_truncated_blob_is_data_error(arrays_in, data):
    with tempfile.TemporaryDirectory() as tmp:
        blob, _ = _saved_checkpoint(tmp, arrays_in, {})
        raw = blob.read_bytes()
        blob.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="length")])
        with pytest.raises(DataError):
            ad.load_checkpoint(tmp)


@SETTINGS
@given(nonempty_arrays, st.data())
def test_flipped_blob_byte_is_data_error(arrays_in, data):
    with tempfile.TemporaryDirectory() as tmp:
        blob, _ = _saved_checkpoint(tmp, arrays_in, {})
        raw = bytearray(blob.read_bytes())
        raw[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= data.draw(
            st.integers(1, 255), label="mask")
        blob.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            ad.load_checkpoint(tmp)


@SETTINGS
@given(named_arrays, st.dictionaries(st.text(max_size=6), st.integers(), max_size=3),
       st.data())
def test_flipped_manifest_byte_is_caught(arrays_in, extra, data):
    with tempfile.TemporaryDirectory() as tmp:
        _, manifest = _saved_checkpoint(tmp, arrays_in, extra)
        raw = bytearray(manifest.read_bytes())
        raw[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= data.draw(
            st.integers(1, 255), label="mask")
        manifest.write_bytes(bytes(raw))
        _loads_same_or_data_error(tmp, arrays_in, extra)


def test_every_single_bit_flip_of_a_manifest_is_caught():
    # exhaustive over one small checkpoint: a zero-size array (whose shape a
    # flip can change without changing the blob size), an escaped name, an extra
    arrays_in = {"w": np.arange(6.0).reshape(2, 3), "empty": np.zeros((0, 3)),
                 "\u00e9": np.array(2.5)}
    extra = {"config": {"beta": 0.5}, "input_dim_x": 64}
    with tempfile.TemporaryDirectory() as tmp:
        _, manifest = _saved_checkpoint(tmp, arrays_in, extra)
        raw = manifest.read_bytes()
        for at in range(len(raw)):
            for bit in range(8):
                flipped = bytearray(raw)
                flipped[at] ^= 1 << bit
                manifest.write_bytes(bytes(flipped))
                _loads_same_or_data_error(tmp, arrays_in, extra)
