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

The implementation processes one level at a time.  At level d the input
splits by the exponent r of x_d into slices S_r, x_d dropped (r = 0 and
zero coefficients are skipped), and the form the next level reads is
sum_r S_r * L^(r-1), with L = sum_k a_{kd} x_k the substituted linear form.
Horner's rule computes it without any power of L: acc = S_top, then
acc = S_r + L * acc for r from top - 1 down to 1.  Terms merge after every
multiplication by L, so common subexpressions collapse across the whole
polynomial at each step, which is what makes repeated evaluation cheap.

Exponent vectors are packed into single ints, B = m.bit_length() bits per
variable with x_1 lowest, so 2^B > m.  Each level's input is a form of
degree d in d variables, d <= m, and inside its step every acc is
homogeneous in x_1..x_{d-1} of degree d - r <= d - 1, so no exponent ever
exceeds m and every one stays below 2^B: adding the unit of x_k to a packed
vector whose sum is such a vector never carries from one field into the
next.  Reading the exponent of x_d is then one shift, dropping it one mask,
and multiplying monomials one int addition.
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
    # neg[a][b] = -C[b][a] for letters a and b; a letter outside the type
    # is a KeyError
    neg = {a: {b: -row[a - 1] for b, row in enumerate(c, 1)} for a in range(1, len(c) + 1)}
    rows = tuple(tuple(map(neg[w[i]].__getitem__, w[i + 1:])) for i in range(len(w)))
    return StrictUpperMatrix(len(w), rows)


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
        # the substituted linear form L = sum_k a_{km} x_k as (unit of x_k, a_{km})
        lf = [(1 << bits * k, a) for k, a in enumerate(A.column(m - 1)) if a]
        slices = {}  # r -> S_r, the terms of cur with x_m^r, x_m dropped
        for key, c in cur.items():
            r = key >> shift
            if r and c:  # about 1 term in 7 has cancelled on E6/P2
                s = slices.get(r)
                if s is None:
                    s = slices[r] = {}
                s[key & mask] = c
        # Horner: sum_r S_r * L^(r-1) = S_1 + L*(S_2 + L*(S_3 + ...)),
        # accumulated in cur once its terms are all in the slices
        cur = {}
        for r in range(max(slices, default=0), 0, -1):
            nxt = slices.pop(r, {})
            get = nxt.get
            for e, c in cur.items():
                if c:
                    for unit, a in lf:
                        k2 = e + unit
                        nxt[k2] = get(k2, 0) + c * a
            cur = nxt
        m -= 1
    return cur.get(1, 0)

