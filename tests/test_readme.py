"""The README's ``python`` examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_two_python_blocks():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("block", BLOCKS, ids=["library-use", "policy"])
def test_readme_block_runs(block, tmp_path, monkeypatch):
    # the first block exports into out/ under the working directory
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
