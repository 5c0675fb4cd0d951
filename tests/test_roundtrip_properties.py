"""Property checks of the lossless round trips the file formats promise:
matrix CSVs and checkpoints give back the exact bits they were given."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from macrobottle import autodiff as ad
from macrobottle import dataio

SETTINGS = settings(max_examples=60, deadline=None)

finite_matrices = arrays(
    np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False, width=64))

named_arrays = st.dictionaries(
    st.text(max_size=12),
    arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
           elements=st.floats(width=64)),
    max_size=5)


@SETTINGS
@given(finite_matrices)
def test_matrix_csv_round_trip_is_bit_exact(matrix):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        dataio.save_matrix_csv(path, matrix)
        loaded, _ = dataio.load_matrix_csv(path)
    assert loaded.shape == matrix.shape
    assert loaded.tobytes() == matrix.tobytes()


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
