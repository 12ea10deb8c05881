"""The README's library quick tour runs as written against the package."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _quick_tour() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library quick tour", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quick tour'"
    return match.group(1)


def test_readme_quick_tour_runs():
    namespace: dict = {}
    exec(compile(_quick_tour(), "README.md quick tour", "exec"), namespace)
    assert namespace["flags"] and namespace["audit"]["violations"] == []
