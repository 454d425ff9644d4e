"""Fraction-based Gaussian elimination: the test oracle for `determinant`.

The package computes determinants by Bareiss's fraction-free elimination on
plain ints; this rational elimination stays here so the two can be
compared.
"""

from fractions import Fraction


def fraction_determinant(M) -> int:
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("determinant of a non-square matrix")
    a = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    if det.denominator != 1:
        raise ArithmeticError("determinant of an integer matrix is not an integer")
    return int(det)
