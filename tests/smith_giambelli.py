"""Giambelli polynomials from a Smith form: the test oracle for `giambelli`.

With P * M * Q = [I; 0] for the structure matrix M of a degree, the rows
of Q * (first beta rows of P) are monomial combinations hitting each unit
class vector.  The package reads its polynomials off the Hermite transform
of `relation_kernel` instead, so the two answers may differ, but only by
relations of the degree.
"""

from schubert.cohomology import structure_matrix
from schubert.intlinalg import _mat_mul, smith_with_transforms
from schubert.intpoly import IntPolynomial


def smith_giambelli(table, gens, m):
    """Polynomials mapping to each class of level m, by the Smith route."""
    bundle = structure_matrix(table, gens, m)
    beta = table.beta(m)
    if beta == 0:
        return []
    p, d, q = smith_with_transforms(bundle.matrix)
    if len(d) < beta or any(d[i][i] != 1 for i in range(beta)):
        raise ValueError(f"no unimodular minor in degree {m}")
    return [
        IntPolynomial(gens.ring, {e: c for e, c in zip(bundle.exponents, row) if c})
        for row in _mat_mul(q, p[:beta])
    ]
