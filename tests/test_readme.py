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


def test_configuration_table_names_every_key():
    """The README's key table lists exactly the keys a config file may set.

    ``vessel.*`` stands for every field of VesselParams.
    """
    from solarasv.config import _KEYS, _field_keys
    from solarasv.vessel import VesselParams

    text = README.read_text(encoding="utf-8")
    table = text.split("| key | default | notes |\n", 1)[1].split("\n\n", 1)[0]
    cells = [row.split("|")[1] for row in table.splitlines()[1:]]
    named = [key for cell in cells for key in re.findall(r"`([a-z_]+\.[a-z0-9_*]+)`", cell)]
    vessel = list(_field_keys("vessel", VesselParams))
    expanded = [k for key in named for k in (vessel if key == "vessel.*" else [key])]
    assert sorted(expanded) == sorted(_KEYS)
