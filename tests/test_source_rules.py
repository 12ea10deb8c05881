"""Rules the package source keeps, read off one `ast` pass over
src/swanss/*.py:

- no `assert` statement: `python -O` strips them, and a check that can be
  switched off is no check, so the program raises `InvariantError` instead;
- no read of the environment (`os.environ`, `os.getenv`): every knob of a
  run is an argument, so the same arguments give the same report;
- no unused import outside `__init__.py`, whose imports are the package's
  exports: a name a module imports is read in it, so a deleted call
  takes its import along;
- no module-level function or class that only the tests use, or that the
  package only re-exports: each is named outside its own definition, as a
  name or an attribute, in a module of the package or a demo, or in a
  file under perfbench/, whose tracer names its targets in strings.
"""

import ast
import glob
import os
import re
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "swanss")
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


def _reads(tree: ast.AST) -> Counter:
    """How often `tree` reads each name, as a name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _unnamed(tree: ast.AST, elsewhere: set[str]) -> list[tuple[int, str]]:
    """The module-level functions and classes of `tree` that neither the rest
    of `tree` nor `elsewhere` names."""
    reads = _reads(tree)
    return [(node.lineno, f"unnamed {node.name}") for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in elsewhere
            and reads[node.name] <= _reads(node)[node.name]]


def _named_outside_the_package() -> set[str]:
    """What the demos and perfbench/ name: names, attributes, and the parts
    of strings that are dotted names."""
    named = set()
    paths = glob.glob(os.path.join(ROOT, "demos", "*.py"))
    paths += glob.glob(os.path.join(ROOT, "perfbench", "**", "*.py"), recursive=True)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        named |= set(_reads(tree))
        named |= {part for node in ast.walk(tree) if isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)
                  for part in node.value.split(".")}
    return named


READS = {name: set(_reads(tree)) for name, tree in TREES.items()}
OUTSIDE = _named_outside_the_package()


def test_the_package_has_modules():
    assert {"cli.py", "corpus.py", "linalg.py"} <= set(TREES)


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_assert_and_no_environment_read(name):
    assert _violations(TREES[name]) == []


@pytest.mark.parametrize("name", sorted(set(TREES) - {"__init__.py"}))
def test_every_import_is_read(name):
    assert _unused_imports(TREES[name]) == []


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_definition_is_named_outside_the_tests(name):
    elsewhere = OUTSIDE.union(*(reads for other, reads in READS.items() if other != name))
    assert _unnamed(TREES[name], elsewhere) == []


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
    source = ("def wrapper(m):\n    return wrapper(m)\n\ndef used():\n    pass\n\n"
              "class Helper:\n    pass\n\nclass Kept:\n    pass\n\nused()\n")
    assert _unnamed(ast.parse(source), {"Kept"}) == [(1, "unnamed wrapper"), (7, "unnamed Helper")]
