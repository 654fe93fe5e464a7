"""Tests for preset builders and CSV input."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockindex.algebra import GridSpec
from fockindex.presets import (
    PresetError,
    as_complex,
    exp_approach,
    exp_decay,
    from_spec,
    inverse_decay,
    load_csv,
    piecewise_linear,
)

GRID = GridSpec(4, 40)


def test_as_complex_forms():
    assert as_complex(2) == 2 + 0j
    assert as_complex([1, -2]) == 1 - 2j
    assert as_complex("1+2j") == 1 + 2j
    with pytest.raises(PresetError):
        as_complex([1, 2, 3])
    with pytest.raises(PresetError):
        as_complex("not a number")


def test_exp_approach_matches_formula():
    b = exp_approach(GRID, 0.5 + 0.5j, 1.3)
    s = GRID.points()
    np.testing.assert_array_equal(b.samples, 1.0 + (0.5 + 0.5j) * np.exp(-1.3 * s))
    assert b.tail == 1.0


def test_exp_decay_and_inverse_decay():
    s = GRID.points()
    b = exp_decay(GRID, 1.0, 1.0, 0.1)
    np.testing.assert_array_equal(b.samples, np.exp(-s) + 0.1)
    assert b.tail == 0.1
    c = inverse_decay(GRID, 2.0, 0.5)
    np.testing.assert_array_equal(c.samples, 2.0 / (1.0 + s) + 0.5)
    assert c.tail == 0.5
    assert not c.is_resolved  # 2/41 is far from the tail at S=40


def test_rate_must_be_positive():
    with pytest.raises(PresetError):
        exp_approach(GRID, 1.0, 0.0)
    with pytest.raises(PresetError):
        exp_decay(GRID, 1.0, -1.0)


def test_piecewise_linear():
    b = piecewise_linear(GRID, [(0.0, 0.5), (1.0, 1.0)])
    assert b.value_at(0) == 0.5
    assert b.value_at(0.5) == 0.75
    assert b.value_at(1) == 1.0
    assert b.value_at(5) == 1.0
    assert b.tail == 1.0


def test_piecewise_linear_bad_knots():
    with pytest.raises(PresetError):
        piecewise_linear(GRID, [])
    with pytest.raises(PresetError):
        piecewise_linear(GRID, [(0.0, 1.0), (0.0, 2.0)])


def test_from_spec_dispatch():
    b = from_spec(GRID, {"kind": "constant", "value": [0.0, 1.0]})
    assert b.tail == 1j
    b = from_spec(GRID, {"kind": "exp_approach", "c": 1.0, "a": 1.0})
    assert b.value_at(0) == 2.0
    b = from_spec(GRID, {"kind": "raw", "values": [1.0] * GRID.size, "tail": 1.0})
    assert b.tail == 1.0


def test_from_spec_rejects_unknown_kind():
    with pytest.raises(PresetError):
        from_spec(GRID, {"kind": "mystery"})
    with pytest.raises(PresetError):
        from_spec(GRID, {"value": 1.0})
    with pytest.raises(PresetError):
        from_spec(GRID, {"kind": "constant"})


def test_raw_needs_full_grid():
    with pytest.raises(PresetError):
        from_spec(GRID, {"kind": "raw", "values": [1.0, 2.0]})


def _write_csv(path, grid, values, tail="1.0"):
    lines = [f"s,re,im,tail={tail}"]
    for s, v in zip(grid.points(), values):
        lines.append(f"{float(s)!r},{float(v.real)!r},{float(v.imag)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_csv_roundtrip(tmp_path):
    grid = GridSpec(2, 3)
    values = (1.0 + 0.5j) * np.exp(-grid.points())
    path = tmp_path / "element.csv"
    _write_csv(path, grid, values)
    b = load_csv(grid, path)
    np.testing.assert_allclose(b.samples, values, rtol=0, atol=0)
    assert b.tail == 1.0


def test_load_csv_via_spec_with_base_dir(tmp_path):
    grid = GridSpec(2, 3)
    _write_csv(tmp_path / "b.csv", grid, np.ones(grid.size, dtype=complex))
    b = from_spec(grid, {"kind": "csv", "path": "b.csv"}, base_dir=tmp_path)
    assert b.value_at(0) == 1.0


def test_load_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("s,re,im\n0.0,1.0,0.0\n", encoding="utf-8")
    with pytest.raises(PresetError):
        load_csv(GridSpec(1, 1), path)


def test_load_csv_rejects_wrong_grid(tmp_path):
    grid = GridSpec(2, 3)
    values = np.ones(grid.size, dtype=complex)
    path = tmp_path / "offgrid.csv"
    lines = ["s,re,im,tail=1.0"]
    for s, v in zip(grid.points() + 0.1, values):
        lines.append(f"{float(s)!r},{float(v.real)!r},{float(v.imag)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(PresetError):
        load_csv(grid, path)
    short = tmp_path / "short.csv"
    _write_csv(short, GridSpec(2, 2), np.ones(GridSpec(2, 2).size, dtype=complex))
    with pytest.raises(PresetError):
        load_csv(grid, short)


def per_row_samples(grid, path):
    """The samples as the per-row loader parsed them, one float() per cell."""
    with path.open(newline="", encoding="utf-8") as fh:
        body = [row for row in list(csv.reader(fh))[1:] if row]
    samples = np.empty(grid.size, dtype=complex)
    for k, row in enumerate(body):
        samples[k] = complex(float(row[1]), float(row[2]))
    return samples


FINITE = st.floats(allow_nan=False, allow_infinity=False)
CELLS = st.one_of(
    FINITE.map(repr),
    FINITE.map("{:.6e}".format),
    FINITE.map("{:.20g}".format),
    st.sampled_from(["0", "-0.0", "1_000.5", " 2.5", "1e-320", "-4.9e-324", "1e-400", ".5", "7.", "+3"]),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_load_csv_samples_match_the_per_row_parse_byte_for_byte(tmp_path_factory, m, end, data):
    grid = GridSpec(m, end)
    cells = data.draw(st.lists(st.tuples(CELLS, CELLS), min_size=grid.size, max_size=grid.size))
    path = tmp_path_factory.getbasetemp() / "element.csv"
    lines = ["s,re,im,tail=1.0"] + [f"{float(s)!r},{re},{im}" for s, (re, im) in zip(grid.points(), cells)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_csv(grid, path).samples.tobytes() == per_row_samples(grid, path).tobytes()


@pytest.mark.parametrize(
    "rows, message",
    [
        (["0.0,1,0", "0.5,1", "1.0,1,0"], "row 3 needs 3 columns, got ['0.5', '1']"),
        (["0.0,1,0", "0.6,1,0", "1.0,1"], "row 3 has s=0.6, expected grid point 0.5"),
        (["0.0,1,0", "0.5,1,0", "1.25,1,0"], "row 4 has s=1.25, expected grid point 1.0"),
        (["0.0,1", "0.6,1,0", "1.0,1,0"], "row 2 needs 3 columns, got ['0.0', '1']"),
        (["0.0,1,0", "", "0.5,1,0", "1.0,x,0"], "row 4 needs numbers in its first 3 columns, got ['1.0', 'x', '0']"),
        (["0.0,1,0", "0.7,1,0", "x,1,0"], "row 3 has s=0.7, expected grid point 0.5"),
    ],
)
def test_load_csv_names_the_first_bad_row(tmp_path, rows, message):
    """Row numbers count the header and the non-empty rows, as the per-row
    loader counted them; the first bad row wins."""
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["s,re,im,tail=1.0", *rows]) + "\n", encoding="utf-8")
    with pytest.raises(PresetError) as error:
        load_csv(GridSpec(2, 1), path)
    assert str(error.value) == f"{path}: {message}"
