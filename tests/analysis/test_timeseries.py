"""Unit tests for time-series utilities."""

import io

import pytest

from repro.analysis import uniform_grid, write_csv
from repro.sim import Probe


def probe_of(points):
    p = Probe("p")
    for t, v in points:
        p.record(t, v)
    return p


def test_uniform_grid_endpoints_and_spacing():
    grid = uniform_grid(0.0, 1.0, 5)
    assert grid == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


def test_uniform_grid_validation():
    with pytest.raises(ValueError):
        uniform_grid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        uniform_grid(1.0, 1.0, 5)


def test_write_csv_shape_and_alignment():
    a = probe_of([(0.0, 1.0), (0.5, 2.0)])
    b = probe_of([(0.25, 7.0)])
    out = io.StringIO()
    rows = write_csv(out, {"a": a, "b": b}, start=0.0, end=1.0, samples=5)
    assert rows == 5
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "time,a,b"
    assert len(lines) == 6
    # b is empty before 0.25
    first_row = lines[1].split(",")
    assert first_row[1] == "1.000000"
    assert first_row[2] == ""


def test_write_csv_requires_series():
    with pytest.raises(ValueError):
        write_csv(io.StringIO(), {}, 0.0, 1.0)
