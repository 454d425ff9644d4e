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

Exponent vectors are packed into single ints, B = m.bit_length() bits per
variable with x_1 lowest, so 2^B > m.  A form of degree d in d variables
has every exponent at most d, and each level step lowers the degree and the
number of variables by one, so every exponent stays at most m and below
2^B: adding two packed vectors whose sum is such a vector never carries
from one field into the next.  Reading the exponent of x_d is then one
shift, dropping it one mask, and multiplying monomials one int addition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import LieType, cartan_matrix


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

    This is the computational core used by the characteristics layer.
    Each exponent tuple must have A.size entries, none negative, summing
    to A.size (ValueError otherwise).  The tuples are packed into ints of
    B = A.size.bit_length() bits per variable; see the module docstring
    for why no field ever carries into the next.
    """
    m = A.size
    bits = m.bit_length()
    cur = {}
    for exp, c in terms.items():
        # explicit raises, not asserts: an exponent above m would carry
        if len(exp) != m:
            raise ValueError(f"exponent {exp} has {len(exp)} variables, matrix has size {m}")
        if min(exp) < 0:
            raise ValueError(f"exponent {exp} has a negative entry")
        if sum(exp) != m:
            raise ValueError(f"exponent {exp} has degree {sum(exp)}, expected {m}")
        cur[sum(e << bits * k for k, e in enumerate(exp))] = c
    while m > 1:
        shift = bits * (m - 1)
        mask = (1 << shift) - 1
        # the substituted linear form sum_k a_{km} x_k as (unit of x_k, a_{km})
        lf = [(1 << bits * k, a) for k, a in enumerate(A.column(m - 1)) if a]
        pows = [{0: 1}]  # powers of the linear form, built on demand
        merged = {}
        for key, c in cur.items():
            r = key >> shift
            if r == 0 or c == 0:  # 2 in 5 merged terms cancel on E6/P2
                continue
            while len(pows) < r:
                nxt = {}
                for e, c0 in pows[-1].items():
                    for unit, a in lf:
                        k2 = e + unit
                        nxt[k2] = nxt.get(k2, 0) + c0 * a
                pows.append(nxt)
            base = key & mask
            for e2, c2 in pows[r - 1].items():
                k2 = base + e2
                merged[k2] = merged.get(k2, 0) + c * c2
        cur = merged
        m -= 1
    return cur.get(1, 0)

