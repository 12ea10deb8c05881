"""The README's code and file-format examples run as written against the package."""

import os
import re

from swanss.synthetic import load_synthetic_page

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _block(heading: str, lang: str, containing: str = "") -> str:
    """The first `lang` code block under `heading` that holds `containing`."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split(heading, 1)[1]
    for block in re.findall(rf"```{lang}\n(.*?)```", section, re.DOTALL):
        if containing in block:
            return block
    raise AssertionError(f"no {lang} block holding {containing!r} under {heading!r}")


def test_readme_quick_tour_runs():
    namespace: dict = {}
    exec(compile(_block("## Library quick tour", "python"), "README.md quick tour", "exec"),
         namespace)
    assert namespace["flags"] and namespace["audit"]["violations"] == []


def test_readme_synthetic_page_loads():
    terms = load_synthetic_page(_block("### File formats", "json", '"field_char"'))
    assert list(terms) == [2]
    assert terms[2].d_rank(0, 2) == 1
