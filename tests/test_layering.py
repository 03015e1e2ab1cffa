"""The package's import layering, read from each module's source with ast.

The strategy modules are leaves: the barrier, the learner and the planner
build on the solar and vessel models alone, and the harness composes them
and writes every CSV. The CLI reaches the rest through the config loader
and the harness only.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import solarasv

PACKAGE = Path(solarasv.__file__).parent


def _package_imports(module: str) -> set[str]:
    """The package modules ``module`` imports, in any import form.

    ``from .x import``, ``from . import x``, ``from solarasv.x import`` and
    ``import solarasv.x`` each name x.
    """
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module or ""}
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
    absolute = {n.split(".")[1] for n in names if n.startswith("solarasv.")}
    return absolute | {n for n in names if (PACKAGE / f"{n}.py").is_file()}


@pytest.mark.parametrize("module", ["barrier", "controller", "benchmark"])
def test_strategy_modules_build_on_the_models_alone(module):
    assert _package_imports(module) <= {"solar", "vessel"}


@pytest.mark.parametrize(
    "module, imports",
    [("vessel", {"solar"}), ("csvout", {"_fork"}), ("cli", {"config", "harness"})],
    ids=["vessel", "csvout", "cli"],
)
def test_module_imports(module, imports):
    assert _package_imports(module) == imports
