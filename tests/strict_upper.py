"""Strict upper-triangular matrices built entry by entry, for tests."""

from schubert.triangular import StrictUpperMatrix


def from_entry_fn(size, fn) -> StrictUpperMatrix:
    """The size x size matrix with a_{ij} = fn(i, j) for 0 <= i < j < size."""
    rows = tuple(tuple(fn(i, j) for j in range(i + 1, size)) for i in range(size))
    return StrictUpperMatrix(size, rows)
