"""The page tower stops where it converges (`pages` docstring).

With the convergence test switched off, every page is computed; the
reports, and every page read past convergence, must not change.  The
shortcut spends the total dims, so the convergence check of
perfbench/checker.py (last page against the total dims) is not
independent of it for converged towers; these comparisons are.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings

from swanss import pages
from swanss.errors import InvariantError
from swanss.pages import ConvergedPage, PageTower
from swanss.report import analyze_complex, canonical_json
from test_quotient import orbit_closures
from test_report_digests import REPORTS


@contextlib.contextmanager
def without_shortcut():
    """Switch the convergence test off: every page is computed."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pages.PageTower, "_converged", lambda self, page: False)
        yield


def _full_report(K, k_max=None, r_max=None) -> str:
    with without_shortcut():
        return canonical_json(analyze_complex(K, k_max, r_max))


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_reports_are_the_same_without_the_shortcut(name):
    build, k_max, r_max, _ = REPORTS[name]
    K = build()
    assert canonical_json(analyze_complex(K, k_max, r_max)) == _full_report(K, k_max, r_max)


@settings(max_examples=15, deadline=None)
@given(orbit_closures())
def test_random_reports_are_the_same_without_the_shortcut(K):
    assert canonical_json(analyze_complex(K)) == _full_report(K)


@pytest.mark.parametrize("name, converged", [
    ("circle-trivial-3", 2), ("join-5-1-0", 2), ("suspension-3", 2), ("certificates-3", 4),
])
def test_converged_pages_serve_what_the_full_tower_computes(pipelines, name, converged):
    tower = pipelines(name).tower
    with without_shortcut():
        full = PageTower(tower.dc)
    assert [r for r, page in tower.pages.items() if page.served is page] == list(range(1, converged + 1))
    assert all(page.served is page for page in full.pages.values())
    for r in range(converged + 1, tower.r_max + 1):
        page, direct = tower.pages[r], full.pages[r]
        assert isinstance(page, ConvergedPage) and not page.cells
        assert (page.r, page.trusted_k, page.k_reported) == (direct.r, direct.trusted_k, direct.k_reported)
        assert page.dims_json() == direct.dims_json()
        for k in range(page.trusted_k + 1):
            for l in range(tower.n + 1):
                assert page.d_rank(k, l) == direct.d_rank(k, l) == 0
                assert page.d_is_zero(k, l) and direct.d_is_zero(k, l)
                for i in range(page.dim(k, l)):
                    cls = tower.basis_class(r, k, l, i)
                    assert np.array_equal(tower.leading_vector(cls), full.leading_vector(cls))
        for k in range(6):
            for k2 in range(6):
                for l in range(tower.n + 1):
                    got = tower.pairing_matrix(r, k, l, k2, tower.n - l)
                    want = full.pairing_matrix(r, k, l, k2, tower.n - l)
                    assert (got is None) == (want is None), (r, k, l, k2)
                    assert got is None or np.array_equal(got, want), (r, k, l, k2)


@pytest.mark.parametrize("name", ["join-3-1-1", "join-5-1-1"])
def test_free_joins_compute_every_page(pipelines, name):
    # a free action on S^3: d_4 maps row 3 onto row 0 past column 3, so
    # only E_5 = E_(n+2) reaches the total dims
    tower = pipelines(name).tower
    assert all(page.served is page and page.cells for page in tower.pages.values())
    assert [tower._converged(tower.pages[r]) for r in range(2, tower.r_max + 1)] == [
        False, False, False, True]


def test_nonzero_differential_on_a_converged_page_raises(pipelines, monkeypatch):
    # the trivial action on a circle converges at E_2; a d_2 set to 1 at
    # (0, 1) -> (2, 0), outside the columns the period check compares,
    # contradicts the total dims
    dc = pipelines("circle-trivial-3").D
    turn = pages.PageTower._turn_page

    def corrupted(self, r):
        turn(self, r)
        if r == 1:
            self.pages[2].cells[(0, 1)].d_matrix = np.ones((1, 1), dtype=np.int64)

    monkeypatch.setattr(pages.PageTower, "_turn_page", corrupted)
    with pytest.raises(InvariantError, match=r"E_2 has converged, but d_2 != 0 at \(0,1\)") as info:
        PageTower(dc)
    assert info.value.stage == "pages"
