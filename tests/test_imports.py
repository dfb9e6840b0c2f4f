"""Import hygiene: every name a screwgen module or a test module imports
is used there."""

import ast
from pathlib import Path

import pytest

import screwgen

MODULES = sorted(Path(screwgen.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that the module's imports bind and no other line reads:
    a plain ``import a.b`` binds ``a``, and ``__future__`` imports bind
    nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=[p.stem for p in MODULES + TESTS])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_what_no_line_reads():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import comb, pi as PI\n"
              "x = np.zeros(comb(4, 2))\n")
    assert unused_imports(source) == ["PI (line 4)", "os (line 2)"]
