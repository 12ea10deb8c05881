"""Rules the package source keeps, read off one `ast` pass over
src/swanss/*.py:

- no `assert` statement: `python -O` strips them, and a check that can be
  switched off is no check, so the program raises `InvariantError` instead;
- no read of the environment (`os.environ`, `os.getenv`): every knob of a
  run is an argument, so the same arguments give the same report.
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


def test_the_package_has_modules():
    assert {"cli.py", "corpus.py", "linalg.py"} <= set(TREES)


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_assert_and_no_environment_read(name):
    assert _violations(TREES[name]) == []


def test_the_rules_find_what_they_forbid():
    source = ("import os\nfrom os import getenv\n"
              "assert True\nn = os.environ.get('N')\nm = os.getenv('M')\n")
    assert _violations(ast.parse(source)) == [
        (2, "from os import getenv"), (3, "assert statement"), (4, "os.environ"),
        (5, "os.getenv")]
