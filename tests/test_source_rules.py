"""Rules the package source keeps, read off one `ast` pass over
src/swanss/*.py:

- no `assert` statement: `python -O` strips them, and a check that can be
  switched off is no check, so the program raises `InvariantError` instead;
- no read of the environment (`os.environ`, `os.getenv`): every knob of a
  run is an argument, so the same arguments give the same report;
- no unused import outside `__init__.py`, whose imports are the package's
  exports: a name a module imports is read in it, so a deleted call
  takes its import along.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "swanss")
_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _trees():
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), ast.parse(fh.read(), path)


TREES = dict(_trees())


def _violations(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert statement"))
        elif (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"from os import {alias.name}")
                      for alias in node.names if alias.name in _ENVIRONMENT]
    return sorted(found)


def _unused_imports(tree: ast.AST) -> list[tuple[int, str]]:
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        found += [(node.lineno, f"unused import {name}") for name in names if name not in read]
    return sorted(found)


def test_the_package_has_modules():
    assert {"cli.py", "corpus.py", "linalg.py"} <= set(TREES)


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_assert_and_no_environment_read(name):
    assert _violations(TREES[name]) == []


@pytest.mark.parametrize("name", sorted(set(TREES) - {"__init__.py"}))
def test_every_import_is_read(name):
    assert _unused_imports(TREES[name]) == []


def test_the_rules_find_what_they_forbid():
    source = ("import os\nfrom os import getenv\n"
              "assert True\nn = os.environ.get('N')\nm = os.getenv('M')\n")
    assert _violations(ast.parse(source)) == [
        (2, "from os import getenv"), (3, "assert statement"), (4, "os.environ"),
        (5, "os.getenv")]
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .gmodule import decompose, group_cohomology\n"
              "x = np.zeros(os.sep)\ndecompose(x)\n")
    assert _unused_imports(ast.parse(source)) == [(4, "unused import group_cohomology")]
