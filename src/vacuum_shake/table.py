"""The one CSV format of every artifact the package writes.

A header row, then one row per entry of equal-length columns.  Each cell is
``repr`` of the column's ``.tolist()`` value: integers as digits, floats as
the shortest string that reads back to the same float64.  UTF-8, ``\\n``
line ends, no locale dependence.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_csv"]

# rows formatted at a time: a large table never holds all of its cells as
# Python strings at once (4096 rows raised a 240-mode scattering run's peak
# RSS by 2.5 MB, 1024 rows by 0.3 MB)
_BLOCK = 1024


def write_csv(path, header, columns) -> None:
    """Write ``columns`` (one 1D sequence per ``header`` name, all of one
    length) to ``path``, one row per entry."""
    columns = [np.asarray(c) for c in columns]
    n_rows = len(columns[0])
    if len(columns) != len(header) or any(c.shape != (n_rows,) for c in columns):
        raise ValueError("write_csv needs one 1D column per header name, "
                         "all of one length")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _BLOCK):
            rows = zip(*(map(repr, c[start:start + _BLOCK].tolist())
                         for c in columns))
            fh.write("\n".join(map(",".join, rows)) + "\n")
