"""Cokernel structure from one Smith form of the whole matrix: the test
oracle for `cokernel_structure` and the even groups of `gysin_analysis`.

The package reads the cokernel off a Hermite form, Smith-reducing only the
rows whose pivot is not 1; this is the route it took before, kept here so
the two can be compared.
"""

from schubert.intlinalg import AbelianGroupStructure, smith_with_transforms


def smith_cokernel(M):
    """Z^cols modulo the row span of M, from the invariant factors of M."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if rows == 0 or cols == 0:
        return AbelianGroupStructure(cols)
    _, d, _ = smith_with_transforms(M)
    invariants = [d[i][i] for i in range(min(rows, cols)) if d[i][i]]
    return AbelianGroupStructure(cols - len(invariants), tuple(x for x in invariants if x > 1))
