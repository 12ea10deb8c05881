"""Synthetic spectral-sequence terms loaded from JSON.

Lets the duality checkers run on hypothetical page data (any field,
including the rationals) without a backing complex.  Format:

    { "field_char": 0 | prime,
      "n": int, "window": int,
      "dims": {"k,l": int},
      "differentials": {"r": {"k,l": [[entry]]}},
      "products": {"(k,l)x(k',l')": [[[entry]]]} }   (optional)

A differential matrix at (k, l) maps that cell to (k+r, l-r+1), shaped
(target dim) x (source dim), so it is [] when the target cell is zero.  A
product table entry T[i][j] is the coefficient vector of basis_i * basis_j
in the target cell's basis, so a table has dim(k,l) rows of dim(k',l')
vectors each.
Entries are integers, or strings parsed as exact fractions when the
field characteristic is 0.  Malformed input raises ValueError.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np

from .linalg import MAX_PRIME, _is_int, is_prime, rank_mod

# largest n and window checked: the duality scan reads (window+1)(n+1)
# dims and classifies on the order of window^2 n pairs
MAX_EXTENT = 256


def _parse_entry(x, char: int):
    if not (_is_int(x) or isinstance(x, str)):
        raise ValueError(f"entry {x!r} is neither an integer nor a string")
    try:
        return Fraction(x) if char == 0 else int(x) % char
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad entry {x!r}") from exc


def _parse_rows(rows, what: str, parse) -> list[list]:
    """A rectangular list of lists, each item passed through `parse`."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"{what} must be a list of lists, not {rows!r}")
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"{what} has rows of different lengths")
    return [[parse(x) for x in row] for row in rows]


def fraction_rank(rows: list[list[Fraction]]) -> int:
    """Exact Gaussian elimination over the rationals."""
    mat = [list(r) for r in rows]
    if not mat or not mat[0]:
        return 0
    m, n = len(mat), len(mat[0])
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(m):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def matrix_rank_over(rows, char: int) -> int:
    """Rank of a list of rows, or of an integer array, over F_char (Q for 0)."""
    if char == 0:
        return fraction_rank(rows)
    return rank_mod(np.asarray(rows, dtype=np.int64), char)


_CELL_RE = re.compile(r"^\s*(-?\d+)\s*,\s*(-?\d+)\s*$")
_PROD_RE = re.compile(r"^\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*x\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*$")


class SyntheticTerm:
    """One page term of a synthetic spectral sequence."""

    def __init__(self, n: int, window: int, char: int, dims, diffs, products):
        self.n = n
        self.field_char = char
        self.trusted_k = window
        self._dims = dims
        self._diffs = diffs
        self._products = products
        self.statuses: dict[tuple, str | None] = {}  # filled by `duality._status`
        self.scans: dict[int, tuple] = {}  # filled by `duality.duality_flags`

    def dim(self, k: int, l: int) -> int:
        if l < 0 or l > self.n or k < 0:
            return 0
        return self._dims.get((k, l), 0)

    def d_rank(self, k: int, l: int) -> int:
        mat = self._diffs.get((k, l))
        if mat is None:
            return 0
        return matrix_rank_over(mat, self.field_char)

    def d_is_zero(self, k: int, l: int) -> bool:
        return self.d_rank(k, l) == 0

    def class_key(self, k: int, l: int, k2: int, l2: int) -> tuple[int, int, int, int]:
        return k, l, k2, l2

    def pairing_matrix(self, k: int, l: int, k2: int, l2: int):
        """Pairing into the (necessarily 1-dim) target; None if unavailable."""
        if self.dim(k + k2, l + l2) != 1:
            return None
        table = self._products.get(((k, l), (k2, l2)))
        if table is None:
            return None
        return [[entry[0] for entry in row] for row in table]


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {value!r}")
    return value


def _cell(key: str) -> tuple[int, int]:
    m = _CELL_RE.match(key)
    if not m:
        raise ValueError(f"bad cell key {key!r}")
    return int(m.group(1)), int(m.group(2))


def load_synthetic_page(text: str) -> dict[int, SyntheticTerm]:
    """The terms of the page JSON `text`, by increasing page number: those
    that 'differentials' names, or page 2 alone when it names none."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    for name in ("field_char", "n", "window"):
        if name not in data:
            raise ValueError(f"missing field {name!r}")
        if not _is_int(data[name]):
            raise ValueError(f"{name!r} must be an integer, not {data[name]!r}")
    char, n, window = data["field_char"], data["n"], data["window"]
    # bound before primality: trial division of a huge modulus would not finish
    if char != 0 and not (char <= MAX_PRIME and is_prime(char)):
        raise ValueError(f"field characteristic {char} is neither 0 nor a prime <= {MAX_PRIME}")
    if n < 0:
        raise ValueError(f"'n' must not be negative, not {n}")
    for name, value in (("n", n), ("window", window)):
        if value > MAX_EXTENT:
            raise ValueError(f"{name!r} must not exceed {MAX_EXTENT}, not {value}")

    dims: dict[tuple[int, int], int] = {}
    for key, value in _object(data.get("dims", {}), "'dims'").items():
        if not _is_int(value) or value < 0:
            raise ValueError(f"dimension of cell {key!r} must be a natural number, not {value!r}")
        dims[_cell(key)] = value

    def coefficients(vector):
        if not isinstance(vector, list) or not vector:
            raise ValueError(f"coefficient vector {vector!r} is not a non-empty list")
        return [_parse_entry(x, char) for x in vector]

    products: dict = {}
    for key, table in _object(data.get("products", {}), "'products'").items():
        m = _PROD_RE.match(key)
        if not m:
            raise ValueError(f"bad product key {key!r}")
        cells = ((int(m.group(1)), int(m.group(2))), (int(m.group(3)), int(m.group(4))))
        rows = _parse_rows(table, f"product table {key!r}", coefficients)
        shape = tuple(dims.get(cell, 0) for cell in cells)
        if len(rows) != shape[0] or any(len(row) != shape[1] for row in rows):
            raise ValueError(f"product table {key!r} is not {shape[0]} x {shape[1]}, "
                             "the dims of its cells")
        products[cells] = rows

    pages: dict[int, dict] = {}
    for key, cells in _object(data.get("differentials", {}), "'differentials'").items():
        if not re.fullmatch(r"\s*\d+\s*", key) or int(key) in pages:
            raise ValueError(f"bad or repeated page number {key!r}")
        pages[int(key)] = _object(cells, f"page {key!r} of 'differentials'")
    terms = {}
    for r in sorted(pages) or [2]:
        diffs = {}
        for key, mat in pages.get(r, {}).items():
            diffs[_cell(key)] = _parse_rows(
                mat, f"differential {key!r} on page {r}", lambda x: _parse_entry(x, char)
            )
        terms[r] = term = SyntheticTerm(n, window, char, dims, diffs, products)
        for (k, l), rows in diffs.items():
            shape = (term.dim(k + r, l - r + 1), term.dim(k, l))
            if len(rows) != shape[0] or any(len(row) != shape[1] for row in rows):
                raise ValueError(f"differential {k},{l} on page {r} is not {shape[0]} x "
                                 f"{shape[1]}, the dims of its target and source")
    return terms
