"""The error raised when an internal invariant of a computation breaks."""

from __future__ import annotations


class InvariantError(Exception):
    """An internal invariant failed: a fault of the program, not of its input.

    Raised instead of `assert`, so the check also runs under `python -O`.
    `stage` names the computation and `invariant` the property that broke.
    """

    def __init__(self, stage: str, invariant: str):
        super().__init__(f"{stage}: {invariant}")
        self.stage = stage
        self.invariant = invariant
