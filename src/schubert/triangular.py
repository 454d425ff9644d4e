"""The triangular operator attached to a strict upper-triangular matrix.

For an m x m strict upper-triangular integer matrix A, the operator T_A
maps homogeneous degree-m forms in x_1..x_m to integers by the recursion

    m = 1:                T(c * x_1) = c
    h without x_m:        T_A(h) = 0
    h * x_m^r (r >= 1):   T_A(h * x_m^r) = T_A'(h * (sum_k a_{km} x_k)^(r-1))

where A' drops the last row and column.  In particular T_A(x_1*...*x_m) = 1
for every A.

When A is the Cartan matrix of a reduced word (a_{ij} = -C[w_j][w_i] for
i < j), T_A computes Schubert-basis structure constants; see
`schubert.characteristics`.

The implementation processes one level at a time: the input is split by the
exponent r of x_m, each slice is multiplied by the (r-1)-st power of the
substituted linear form, and the merged result recurses once.  Merging
collapses common subexpressions across the whole polynomial, which is what
makes repeated evaluation cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import LieType, cartan_matrix
from .intpoly import IntPolynomial


@dataclass(frozen=True)
class StrictUpperMatrix:
    """Integer matrix with entries only strictly above the diagonal.

    ``rows[i]`` holds (a_{i,i+1}, ..., a_{i,size-1}) in 0-based indexing,
    so a_{ij} is ``rows[i][j - i - 1]`` for 0 <= i < j < size.
    """

    size: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if len(self.rows) != self.size or any(
            len(row) != self.size - 1 - i for i, row in enumerate(self.rows)
        ):
            raise ValueError("rows must form a strict upper triangle")

    @classmethod
    def from_entry_fn(cls, size, fn) -> "StrictUpperMatrix":
        rows = tuple(
            tuple(fn(i, j) for j in range(i + 1, size)) for i in range(size)
        )
        return cls(size, rows)

    def column(self, j: int) -> tuple[int, ...]:
        """Entries a_{0j}..a_{j-1,j} above position j."""
        return tuple(self.rows[i][j - i - 1] for i in range(j))


def cartan_matrix_of_word(lie_type: LieType, word) -> StrictUpperMatrix:
    """The Cartan matrix of a word: a_{ij} = -C[word[j]][word[i]] for i < j.

    Positions index the word; letters are 1-based simple-root indices.
    A single letter gives the 1 x 1 matrix with no entries.
    """
    c = cartan_matrix(lie_type)
    w = tuple(word)
    if not w:
        raise ValueError("the empty word has no Cartan matrix")
    return StrictUpperMatrix.from_entry_fn(
        len(w), lambda i, j: -c[w[j] - 1][w[i] - 1]
    )


def evaluate_exponents(A: StrictUpperMatrix, terms) -> int:
    """T_A on a sparse {exponent tuple: coefficient} map (degree == size).

    This is the computational core used by the characteristics layer; the
    polynomial-level wrapper below validates and delegates here.
    """
    m = A.size
    cur = terms
    while m > 1:
        col = A.column(m - 1)
        lf = {k: a for k, a in enumerate(col) if a}
        # powers of the substituted linear form, built on demand
        zero = (0,) * (m - 1)
        pows = [{zero: 1}]

        def lf_pow(r):
            while len(pows) <= r:
                prev = pows[-1]
                nxt = {}
                for e, c in prev.items():
                    for k, a in lf.items():
                        key = e[:k] + (e[k] + 1,) + e[k + 1:]
                        nxt[key] = nxt.get(key, 0) + c * a
                pows.append(nxt)
            return pows[r]

        merged = {}
        for exp, c in cur.items():
            r = exp[m - 1]
            if r == 0:
                continue
            base = exp[: m - 1]
            for e2, c2 in lf_pow(r - 1).items():
                key = tuple(a + b for a, b in zip(base, e2))
                merged[key] = merged.get(key, 0) + c * c2
        cur = merged
        m -= 1
    return cur.get((1,), 0)


def evaluate(A: StrictUpperMatrix, h: IntPolynomial) -> int:
    """T_A applied to a homogeneous degree-m form in x_1..x_m (m = A.size)."""
    ring = h.ring
    if ring.nvars != A.size:
        raise ValueError(f"form has {ring.nvars} variables, matrix has size {A.size}")
    if any(d != 1 for d in ring.degrees):
        raise ValueError("the operator acts on rings of degree-1 variables")
    if not h.is_homogeneous():
        raise ValueError("the operator is defined on homogeneous forms only")
    if h.terms and h.degree() != A.size:
        raise ValueError(f"form has degree {h.degree()}, expected {A.size}")
    return evaluate_exponents(A, h.terms)
