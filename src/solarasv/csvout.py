"""Column-wise CSV writer shared by every export.

Each row is the ``str`` of its column values, joined by commas. For a Python
float that is its ``repr``, the shortest text that reads back as the same
float, so an export round-trips bit for bit; strings go in unquoted. Rows
are formatted and written in fixed-size chunks, so a year of steps never
sits in memory as one string or one list of lines.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

# rows formatted per write: large enough that per-chunk overhead vanishes,
# small enough that a chunk's Python floats and strings stay near 1 MB
CHUNK_ROWS = 4096


def write_columns(
    path: str | Path, header: str, columns: Sequence[Sequence]
) -> None:
    """Write ``header`` then one row per index of the equal-length columns.

    A column is an array or a list. Each slice goes through
    ``np.asarray(...).tolist()``, so float columns print as Python float
    reprs, integer columns as plain integers and string columns as is.
    """
    row = ",".join(["%s"] * len(columns)) + "\n"
    n = len(columns[0])
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, n, CHUNK_ROWS):
            chunk = [np.asarray(col[start:start + CHUNK_ROWS]).tolist() for col in columns]
            fh.write("".join(map(row.__mod__, zip(*chunk))))
