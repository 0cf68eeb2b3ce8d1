import math

import numpy as np
import pytest

from vacuum_shake.table import write_csv

SUBNORMAL = 5e-324


def test_header_and_cells(tmp_path):
    path = tmp_path / "t.csv"
    floats = [0.1, 1e-300, SUBNORMAL, -0.0, 1.0 / 3.0]
    write_csv(path, ["i", "x"], [np.arange(5), np.array(floats)])
    data = path.read_bytes()
    assert b"\r" not in data
    lines = data.decode("utf-8").split("\n")
    assert lines[0] == "i,x"
    assert lines[-1] == ""  # every row ends in a line feed
    rows = [line.split(",") for line in lines[1:-1]]
    assert [r[0] for r in rows] == ["0", "1", "2", "3", "4"]
    back = [float(r[1]) for r in rows]
    assert back == floats
    assert math.copysign(1.0, back[3]) == -1.0
    assert rows[2][1] == "5e-324"


def test_one_row_per_entry(tmp_path):
    # more rows than one conversion block, and a plain list column
    n = 10_001
    x = np.linspace(0.0, 1.0, n)
    path = tmp_path / "t.csv"
    write_csv(path, ["k", "x", "y"], [np.arange(n), x, (2.0 * x).tolist()])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == n + 1
    vals = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert np.array_equal(vals[:, 0], np.arange(n))
    assert np.array_equal(vals[:, 1], x)
    assert np.array_equal(vals[:, 2], 2.0 * x)


def test_empty_columns_write_the_header(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[], []])
    assert path.read_text(encoding="utf-8") == "a,b\n"


@pytest.mark.parametrize("columns", [
    [[1.0, 2.0], [1.0]],
    [[1.0, 2.0]],
    [[[1.0, 2.0]], [[1.0, 2.0]]],
], ids=["unequal_lengths", "missing_column", "not_1d"])
def test_malformed_columns_rejected(tmp_path, columns):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], columns)
