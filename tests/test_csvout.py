"""Tests for solarasv.csvout: chunked rows, and the second half formatted in a child."""

from __future__ import annotations

import os

import numpy as np
import pytest

from solarasv import _fork
from solarasv.csvout import CHUNK_ROWS, FORK_ROWS, write_columns


def _columns(n: int):
    rng = np.random.default_rng(n)
    return np.arange(n), rng.normal(size=n), ["s%d" % i for i in range(n)]


def _row_by_row(header: str, columns) -> str:
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return header + "\n" + "".join(f"{a},{b!r},{c}\n" for a, b, c in rows)


# five chunks, the last one partial: the child takes three
@pytest.mark.parametrize("n", [FORK_ROWS, FORK_ROWS + CHUNK_ROWS + 7])
def test_large_table_forks_once_and_keeps_row_order(tmp_path, forks, n):
    columns = _columns(n)
    write_columns(tmp_path / "t.csv", "i,x,s", columns)
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == _row_by_row("i,x,s", columns)
    assert len(forks) == 1


@pytest.mark.parametrize("n", [0, CHUNK_ROWS + 1, FORK_ROWS - 1])
def test_short_table_never_forks(tmp_path, monkeypatch, n):
    monkeypatch.setattr(_fork, "_two_cpus", lambda: True)

    def no_fork():
        raise AssertionError("a table below FORK_ROWS forked")

    monkeypatch.setattr(os, "fork", no_fork)
    columns = _columns(n)
    write_columns(tmp_path / "t.csv", "i,x,s", columns)
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == _row_by_row("i,x,s", columns)


def test_columns_of_different_lengths_are_refused(tmp_path):
    with pytest.raises(ValueError, match="i,x: columns differ in length \\(3, 2\\)"):
        write_columns(tmp_path / "t.csv", "i,x", (np.arange(3), [0.5, 1.5]))
