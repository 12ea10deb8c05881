import pytest

from swanss.complexes import cochain_complex, validate_and_regularize
from swanss.corpus import (
    build_circle,
    build_sphere_join,
    build_suspension_sphere,
    build_trivial_circle,
)
from swanss.pages import compute_pages
from swanss.swan import SwanDoubleComplex
from swan_helpers import certificate_complex, page_three_complex


class Pipeline:
    """Lazily computed stages for one complex, shared across tests."""

    def __init__(self, K):
        self.K = K
        self._R = None
        self._C = None
        self._D = None
        self._tower = None

    @property
    def R(self):
        if self._R is None:
            self._R = validate_and_regularize(self.K)
        return self._R

    @property
    def C(self):
        if self._C is None:
            self._C = cochain_complex(self.R)
        return self._C

    @property
    def D(self):
        if self._D is None:
            self._D = SwanDoubleComplex(self.C)
        return self._D

    @property
    def tower(self):
        if self._tower is None:
            self._tower = compute_pages(self.D)
        return self._tower


_BUILDERS = {
    "circle-3": lambda: build_circle(3),
    "circle-5": lambda: build_circle(5),
    "circle-2": lambda: build_circle(2),
    "circle-trivial-3": lambda: build_trivial_circle(3),
    "join-3-1-1": lambda: build_sphere_join(3, 1, 1),
    "join-3-1-0": lambda: build_sphere_join(3, 1, 0),
    "join-5-1-1": lambda: build_sphere_join(5, 1, 1),
    "join-5-1-0": lambda: build_sphere_join(5, 1, 0),
    "suspension-3": lambda: build_suspension_sphere(3),
    "suspension-5": lambda: build_suspension_sphere(5),
    "certificates-3": certificate_complex,
    "page-three-3": page_three_complex,
}

_CACHE: dict[str, Pipeline] = {}


@pytest.fixture(scope="session")
def pipelines():
    def get(name: str) -> Pipeline:
        if name not in _CACHE:
            _CACHE[name] = Pipeline(_BUILDERS[name]())
        return _CACHE[name]

    return get
