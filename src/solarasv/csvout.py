"""Column-wise CSV writer shared by every export.

Each row is the ``str`` of its column values, joined by commas. For a Python
float that is its ``repr``, the shortest text that reads back as the same
float, so an export round-trips bit for bit; strings go in unquoted. Rows
are formatted and written in fixed-size chunks, so a year of steps never
sits in memory as one string or one list of lines.

A table of at least ``FORK_ROWS`` rows is formatted on two CPUs: a forked
child (:mod:`solarasv._fork`) formats the second half of the chunks while
the caller formats and writes the first half, then the caller writes the
child's chunks in order. On a single CPU the caller formats both halves.
The bytes are the same either way.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from ._fork import beside

# rows formatted per write: large enough that per-chunk overhead vanishes,
# small enough that a chunk's Python floats and strings stay near 1 MB
CHUNK_ROWS = 4096
# rows from which the second half goes to a child: splitting two chunks about
# breaks even with the fork and the reply, four save about a third of the time
FORK_ROWS = 4 * CHUNK_ROWS


def write_columns(
    path: str | Path, header: str, columns: Sequence[Sequence]
) -> None:
    """Write ``header`` then one row per index of the equal-length columns.

    A column is an array or a list. Each slice goes through
    ``np.asarray(...).tolist()``, so float columns print as Python float
    reprs, integer columns as plain integers and string columns as is.
    Columns of different lengths raise ValueError naming the header.
    """
    row = ",".join(["%s"] * len(columns)) + "\n"
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        lengths = ", ".join(str(len(col)) for col in columns)
        raise ValueError(f"{header}: columns differ in length ({lengths})")

    def text(start: int) -> str:
        chunk = [np.asarray(col[start:start + CHUNK_ROWS]).tolist() for col in columns]
        return "".join(map(row.__mod__, zip(*chunk)))

    starts = range(0, n, CHUNK_ROWS)
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        if n < FORK_ROWS:
            fh.writelines(map(text, starts))
        else:
            half = len(starts) // 2
            tail, _ = beside(
                lambda: list(map(text, starts[half:])),
                lambda: fh.writelines(map(text, starts[:half])),
            )
            fh.writelines(tail)
