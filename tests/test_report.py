"""Round-trip and formatting tests for the report serialization."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbkernel import ScanReport
from rbkernel.report import fmt_float

from conftest import csv_table, json_table


def test_fmt_float_17_digits_round_trip():
    for x in (1.0 / 3.0, -0.16368457791661863, 2.4431401944938766, 1e-300):
        assert float(fmt_float(x)) == x
    assert fmt_float(2.0) == "2"
    assert fmt_float(-6.0) == "-6"


def test_csv_round_trip():
    report = ScanReport(
        columns=("r", "sigma_min", "refinement_delta"),
        rows=[(0.5, 0.9392, None), (1.0, 0.9428, 1.25e-3)],
    )
    assert csv_table(report.to_csv_text()) == (report.columns, report.rows)


def test_json_round_trip():
    report = ScanReport(columns=("r", "p"), rows=[(2.0, -0.16368457791661863)])
    assert json_table(report.to_json_text()) == (report.columns, report.rows)


def test_none_cells_serialize_as_empty_and_null(tmp_path):
    report = ScanReport(columns=("a", "b"), rows=[(1.0, None)])
    assert report.to_csv_text() == "a,b\n1,\n"
    assert report.to_json_text() == '[{"a":1.0,"b":null}]\n'


def test_row_width_validated():
    with pytest.raises(ValueError):
        ScanReport(columns=("a", "b"), rows=[(1.0,)])


def test_column_accessor():
    report = ScanReport(columns=("x", "y"), rows=[(1.0, 2.0), (3.0, 4.0)])
    assert report.column("y") == [2.0, 4.0]
    with pytest.raises(ValueError):
        report.column("z")


def test_nan_rejected_in_json():
    report = ScanReport(columns=("x",), rows=[(math.nan,)])
    with pytest.raises(ValueError):
        report.to_json_text()


# Finite doubles of every magnitude, negative zero, values that need all 17
# significant digits, and empty cells.
cells = st.one_of(
    st.none(),
    st.just(-0.0),
    st.sampled_from([0.1, 1.0 / 3.0, 2.4431401944938766, -0.16368457791661863,
                     5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
reports = st.integers(min_value=1, max_value=4).flatmap(
    lambda width: st.builds(
        ScanReport,
        columns=st.just(tuple(f"c{i}" for i in range(width))),
        rows=st.lists(st.tuples(*[cells] * width), min_size=1, max_size=6),
    )
)


def bits(rows):
    """Rows with every float as its bit pattern, so -0.0 differs from 0.0."""
    return [tuple(None if x is None else struct.pack("<d", x) for x in row) for row in rows]


@settings(max_examples=200, deadline=None)
@given(reports)
def test_csv_text_reads_back_to_the_same_rows(report):
    columns, rows = csv_table(report.to_csv_text())
    assert columns == report.columns
    assert bits(rows) == bits(report.rows)


@settings(max_examples=200, deadline=None)
@given(reports)
def test_json_text_reads_back_to_the_same_rows(report):
    columns, rows = json_table(report.to_json_text())
    assert columns == report.columns
    assert bits(rows) == bits(report.rows)


def test_one_empty_cell_row_survives_csv():
    # a one-column row of None is an empty line, which is a row, not padding
    report = ScanReport(columns=("x",), rows=[(None,), (1.0,)])
    assert report.to_csv_text() == "x\n\n1\n"
    assert csv_table(report.to_csv_text())[1] == report.rows
