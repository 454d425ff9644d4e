"""Exact integer linear algebra: Hermite and Smith forms with transforms.

Everything operates on matrices given as sequences of rows of ints and
returns plain lists (JSON-ready arrays of arrays).  Pivoting always picks
a minimal absolute value (lowest row index on ties), so every function is
deterministic.

Conventions:

* `hermite_with_transform(M)` returns (H, U) with U * M = H, U unimodular
  and H in row echelon form with positive pivots and reduced entries above.
* `kernel_basis(M)` is the saturated left kernel {v : v * M = 0}: the rows
  of U facing zero rows of H.
* `smith_with_transforms(M)` returns (P, D, Q) with P * M * Q = D diagonal,
  positive invariant factors in a divisibility chain, reducing one block
  matrix [[M, I], [I, 0]].  It runs only where invariant factors are the
  answer: a cokernel's torsion and a quotient of two lattices.
* `diagonalize_with_unit_minor(M)` is the Hermite check that M presents
  Z^cols: H = U * M is the identity over zero rows, P = U and Q = I.
* `solve_left(M, targets)` solves x * M = t over Z for every target row t
  against one Hermite form of M.
* `cokernel_structure(M)` describes Z^cols / (row span of M) from the
  Hermite form H of M (U is unimodular, so H has M's row span).  Entries
  above a pivot p are reduced into [0, p), so above a unit pivot they are
  0 and a unit-pivot column holds only its 1: column operations clear
  that row, which splits off as Z/1.  Only the block of the rows with a
  pivot other than 1, on the columns that are not unit pivots, goes
  through a Smith form.
* `SparseIntLattice` maintains an integer row span of sparse vectors
  incrementally (membership is divisibility-aware, so it is genuine
  lattice membership, not rational).
* `determinant(M)` is Bareiss's fraction-free elimination on plain ints
  (Bareiss 1968): every division is by the previous pivot, exact by
  Sylvester's identity, and checked.

Transforms are re-multiplied against the input as an exact postcondition,
each product stepping over the nonzeros of its cheaper factor (see
`_mat_mul`), and for sizes up to 12 the transform determinants are
checked to be +-1.  A failed postcondition or an inexact division raises
ArithmeticError (also under ``python -O``).  A ragged matrix (rows of
different lengths) raises ValueError before any elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

DET_CHECK_LIMIT = 12


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mat_mul(A, B):
    """The exact product A * B, stepping over the nonzeros of the cheaper factor.

    The one kernel, `_rows_times`, adds a * B[k] into row i for each
    nonzero a = A[i][k]: a vector step of length cols(B) per nonzero of A.
    When nnz(B) * rows(A) < nnz(A) * cols(B) it is cheaper to step over
    B's nonzeros instead, so the product is computed as (B^T * A^T)^T with
    the same kernel; the ints are the same either way.  (A Hermite
    transform U is mostly nonzero while the Chevalley matrices it
    multiplies have about 3 nonzeros per row, so U * A takes the second
    route.)  Ragged B, or a row of A whose length is not the number of
    rows of B, raises ValueError.  An empty B has no columns, so each row
    of the product is empty.  Rows may be tuples.
    """
    k = len(B)
    if any(len(row) != k for row in A) or len(set(map(len, B))) > 1:
        raise ValueError(
            f"cannot multiply: each row of A needs {k} entries, B must be rectangular"
        )
    n = len(B[0]) if B else 0
    if _nonzeros(B) * len(A) < _nonzeros(A) * n:  # so A, B and the product are nonempty
        return [list(col) for col in zip(*_rows_times(list(zip(*B)), list(zip(*A)), len(A)))]
    return _rows_times(A, B, n)


def _nonzeros(M):
    return sum(len(row) - row.count(0) for row in M)


def _rows_times(A, B, n):
    """A * B for B with n columns: each row is the sum of a * B[k] over its nonzero a = A[i][k]."""
    out = []
    for row in A:
        acc = [0] * n
        for a, b in zip(row, B):
            if a:
                acc = [x + a * y for x, y in zip(acc, b)]
        out.append(acc)
    return out


def _xgcd(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def determinant(M) -> int:
    """Exact determinant by Bareiss's fraction-free elimination.

    Step k replaces each entry of the trailing block by
    (p * a - f * b) / prev, with p the step's pivot and prev the one before
    it; by Sylvester's identity that is a minor of M, so every division is
    exact and every entry stays an int.  Each division is checked, and an
    inexact one raises ArithmeticError (also under ``python -O``).  Rows
    are swapped to the first nonzero pivot; the last pivot is the
    determinant up to the sign of the swaps.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("determinant of a non-square matrix")
    a = list(M)  # rows are replaced, never changed in place; step k drops column k
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][0]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p, *top = a[k]
        for i in range(k + 1, n):
            f, *rest = a[i]
            vals = [p * x - f * y for x, y in zip(rest, top)]
            if prev != 1:
                if any(v % prev for v in vals):
                    raise ArithmeticError("inexact division in Bareiss elimination")
                vals = [v // prev for v in vals]
            a[i] = vals
        prev = p
    return sign * prev


def _width(M):
    """The number of columns of M; a row of another length raises ValueError."""
    cols = len(M[0]) if M else 0
    for i, row in enumerate(M):
        if len(row) != cols:
            raise ValueError(f"ragged matrix: row {i} has {len(row)} entries, row 0 has {cols}")
    return cols


def hermite_with_transform(M):
    """(H, U) with U * M = H in row Hermite normal form.

    Each row is kept as one augmented list M[i] + e_i, so a row operation
    acts on H and U at once; H and U are the two slices of the rows at the
    end.  Pivots are the least absolute value in the column (lowest row on
    ties), and the operations and their order are those of eliminating H
    and U as two lists (`tests/dense_hermite.py`), so (H, U) is the same.
    """
    cols = _width(M)
    rows = len(M)
    h = [[*row, *e] for row, e in zip(M, _identity(rows))]
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        # euclidean elimination below pivot_row in this column
        while True:
            live = [r for r in range(pivot_row, rows) if h[r][col]]
            if not live:
                break
            piv = min(live, key=lambda r: (abs(h[r][col]), r))
            if piv != pivot_row:
                h[piv], h[pivot_row] = h[pivot_row], h[piv]
            done = True
            top = h[pivot_row]
            pv = top[col]
            for r in range(pivot_row + 1, rows):
                if h[r][col]:
                    q = h[r][col] // pv
                    if q:
                        h[r] = [a - q * b for a, b in zip(h[r], top)]
                    if h[r][col]:
                        done = False
            if done:
                break
        if h[pivot_row][col]:
            if h[pivot_row][col] < 0:
                h[pivot_row] = [-x for x in h[pivot_row]]
            top = h[pivot_row]
            pv = top[col]
            for r in range(pivot_row):
                q = h[r][col] // pv
                if q:
                    h[r] = [a - q * b for a, b in zip(h[r], top)]
            pivot_row += 1
    u = [row[cols:] for row in h]
    h = [row[:cols] for row in h]
    _check_transform_product(u, M, h)
    return h, u


def _check_transform_product(u, m, h):
    if _mat_mul(u, m) != h:
        raise ArithmeticError("transform postcondition violated")
    if len(u) <= DET_CHECK_LIMIT and abs(determinant(u)) != 1:
        raise ArithmeticError("transform is not unimodular")


def kernel_basis(M):
    """Basis of the saturated left kernel {v : v * M = 0}, deterministic.

    The rows of U opposite the zero rows of H = U*M form a basis of the
    full integer kernel (saturation comes for free from unimodularity).
    """
    rows = len(M)
    if rows == 0:
        return []
    h, u = hermite_with_transform(M)
    return [list(u[r]) for r in range(rows) if not any(h[r])]


def solve_left(M, targets):
    """Integer rows X with X * M = targets, one row per target row.

    Every target is solved against one Hermite form of M.  Raises
    ValueError when some target has no integer solution (it lies outside
    the integer row span of M).
    """
    rows = len(M)
    cols = _width(M)
    if any(len(t) != cols for t in targets):
        raise ValueError("target length does not match matrix columns")
    h, u = hermite_with_transform(M)
    pivots = [(r, next(c for c in range(cols) if h[r][c])) for r in range(rows) if any(h[r])]
    ys = []
    for target in targets:
        t = list(target)
        y = [0] * rows
        for r, j in pivots:
            q, rem = divmod(t[j], h[r][j])
            if rem:
                raise ValueError("no integer solution: pivot does not divide")
            if q:
                y[r] = q
                t = [a - q * b for a, b in zip(t, h[r])]
        if any(t):
            raise ValueError("no integer solution: target outside row span")
        ys.append(y)
    return _mat_mul(ys, u)


def unimodular_inverse(M):
    """Exact inverse of a unimodular integer matrix (itself integer).

    The Hermite form of a unimodular matrix is the identity, so the
    accompanying transform is the inverse.  Raises ValueError otherwise.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("inverse of a non-square matrix")
    h, u = hermite_with_transform(M)
    if h != _identity(n):
        raise ValueError("matrix is not unimodular")
    return u


def smith_with_transforms(M):
    """(P, D, Q) with P * M * Q = D in Smith normal form.

    One block matrix [[M, I], [I, 0]] is reduced: row operations touch its
    first rows(M) rows and column operations its first cols(M) columns,
    so it ends as [[D, P], [Q, 0]] (the zero block, never touched, is not
    stored).  Pivots and operations, in their order, are those of the
    three-matrix oracle `tests/dense_smith.py`, so (P, D, Q) is the same.
    """
    cols = _width(M)
    rows = len(M)
    a = [[*row, *e] for row, e in zip(M, _identity(rows))] + _identity(cols)

    def row_op(r1, r2, k):  # row r1 -= k * row r2
        a[r1] = [x - k * y for x, y in zip(a[r1], a[r2])]

    t = 0
    while True:
        entries = [
            (abs(a[r][c]), r, c)
            for r in range(t, rows)
            for c in range(t, cols)
            if a[r][c]
        ]
        if not entries:
            break
        _, r0, c0 = min(entries)
        if r0 != t:
            a[t], a[r0] = a[r0], a[t]
        if c0 != t:
            for row in a:
                row[t], row[c0] = row[c0], row[t]
        again = False
        for r in range(t + 1, rows):
            if a[r][t]:
                row_op(r, t, a[r][t] // a[t][t])
                if a[r][t]:
                    again = True
        for c in range(t + 1, cols):
            if a[t][c]:
                k = a[t][c] // a[t][t]
                for row in a:  # col c -= k * col t
                    row[c] -= k * row[t]
                if a[t][c]:
                    again = True
        if again:
            continue
        # divisibility fix: pivot must divide the rest of the block
        offender = next(
            (r for r in range(t + 1, rows) for c in range(t + 1, cols) if a[r][c] % a[t][t]),
            None,
        )
        if offender is not None:
            row_op(t, offender, -1)  # add offending row to pivot row
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1
        if t >= min(rows, cols):
            break
    p = [row[cols:] for row in a[:rows]]
    d = [row[:cols] for row in a[:rows]]
    q = a[rows:]
    if _mat_mul(_mat_mul(p, M), q) != d:
        raise ArithmeticError("Smith postcondition violated")
    if rows <= DET_CHECK_LIMIT and abs(determinant(p)) != 1:
        raise ArithmeticError("Smith row transform is not unimodular")
    if cols <= DET_CHECK_LIMIT and abs(determinant(q)) != 1:
        raise ArithmeticError("Smith column transform is not unimodular")
    return p, d, q


@dataclass(frozen=True)
class AbelianGroupStructure:
    """A finitely generated abelian group Z^free + sum Z/d, d in a chain."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} is not a divisor chain")

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _cokernel_of_hermite(h, cols) -> AbelianGroupStructure:
    """Structure of Z^cols modulo the row span of h, a row Hermite form.

    The entries above a pivot p are reduced into [0, p) and those below it
    are 0, so the column of a unit pivot holds only its 1 (this is
    checked).  Column operations, which keep the cokernel, then clear the
    rest of that row without touching any other row: each unit pivot
    splits off a trivial summand Z/1.  The other nonzero rows are 0 in
    every unit-pivot column, so the torsion is the invariant factors above
    1 of their block on the remaining columns, and only that block, when
    it is nonempty, goes through `smith_with_transforms`.  The nonzero rows
    of an echelon form are independent, so the free rank is cols - rank.
    """
    rank = sum(1 for row in h if any(row))  # the nonzero rows come first
    pivots = [next(c for c, x in enumerate(row) if x) for row in h[:rank]]
    units = {c for row, c in zip(h, pivots) if row[c] == 1}
    if sum(1 for row in h for c in units if row[c]) != len(units):
        raise ArithmeticError("a unit pivot's column holds another nonzero entry")
    rest = [c for c in range(cols) if c not in units]
    block = [[row[c] for c in rest] for row, p in zip(h, pivots) if p not in units]
    torsion = ()
    if block:
        _, d, _ = smith_with_transforms(block)
        torsion = tuple(d[k][k] for k in range(len(block)) if d[k][k] > 1)
    return AbelianGroupStructure(cols - rank, torsion)


def cokernel_structure(M) -> AbelianGroupStructure:
    """Structure of Z^cols modulo the row span of M, from its Hermite form."""
    h, _ = hermite_with_transform(M)
    return _cokernel_of_hermite(h, len(M[0]) if M else 0)


@dataclass
class DiagonalizationResult:
    P: list
    Q: list
    D: list


def diagonalize_with_unit_minor(M) -> DiagonalizationResult:
    """P, Q with P*M*Q = identity stacked over zero rows, from one Hermite form.

    M (rows x cols) must present Z^cols exactly: full column rank and
    trivial cokernel.  That holds exactly when its Hermite form H = U * M
    is the identity over zero rows, the Hermite form of a lattice equal to
    Z^cols, so P = U, Q = I and D = H; the first cols rows of P form a
    right inverse of M.  Otherwise raises ValueError naming the cokernel,
    read off H.
    """
    cols = _width(M)
    h, u = hermite_with_transform(M)
    if h[:cols] != _identity(cols):  # then no row of the echelon form H below is nonzero
        raise ValueError(
            f"matrix does not present Z^{cols}: cokernel {_cokernel_of_hermite(h, cols)}"
        )
    return DiagonalizationResult(u, _identity(cols), h)


class SparseIntLattice:
    """Integer lattice over sparse vectors keyed by ordered hashables.

    Vectors are dicts {key: coefficient}; keys only need a total order
    (integers, exponent tuples, ...).  Rows are kept in echelon form with
    one row per pivot key (the minimal key of the row) and positive pivot
    entries, so membership and reduction are divisibility-aware sweeps.
    This avoids materializing huge ambient dimensions when working with
    graded pieces of polynomial ideals.
    """

    def __init__(self, vectors=()):
        self.pivots: dict = {}  # pivot key -> row dict
        for v in vectors:
            self.add(v)

    @staticmethod
    def _combine(a_coeff, a, b_coeff, b):
        out = {k: a_coeff * c for k, c in a.items()} if a_coeff != 1 else dict(a)
        if a_coeff != 1:
            out = {k: c for k, c in out.items() if c}
        for k, c in b.items():
            s = out.get(k, 0) + b_coeff * c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return out

    def add(self, vec) -> bool:
        """Insert a sparse vector; returns True if the lattice grew."""
        v = {k: c for k, c in vec.items() if c}
        changed = False
        while v:
            p = min(v)
            row = self.pivots.get(p)
            if row is None:
                if v[p] < 0:
                    v = {k: -c for k, c in v.items()}
                self.pivots[p] = v
                return True
            if v[p] % row[p] == 0:
                v = self._combine(1, v, -(v[p] // row[p]), row)
            else:
                g, x, y = _xgcd(row[p], v[p])
                new_row = self._combine(x, row, y, v)
                v = self._combine(row[p] // g, v, -(v[p] // g), row)
                self.pivots[p] = new_row
                changed = True
        return changed

    def __contains__(self, vec) -> bool:
        return not self.reduce(vec)

    def reduce(self, vec) -> dict:
        """Floor-reduce a vector at every pivot; residue of its coset."""
        v = {k: c for k, c in vec.items() if c}
        out = {}
        while v:
            p = min(v)
            row = self.pivots.get(p)
            if row is not None:
                k = v[p] // row[p]
                if k:
                    v = self._combine(1, v, -k, row)
            if v.get(p):
                out[p] = v.pop(p)
            else:
                v.pop(p, None)
        return out

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def canonical_basis(self):
        """Fully reduced rows as sorted item tuples; equal lattices agree.

        Each row keeps its pivot entry and reduces the rest, whose keys all
        lie above the pivot, at every other pivot.
        """
        out = []
        for p in sorted(self.pivots):
            row = self.pivots[p]
            rest = self.reduce({k: c for k, c in row.items() if k != p})
            out.append(((p, row[p]),) + tuple(sorted(rest.items())))
        return tuple(out)

    def copy(self) -> "SparseIntLattice":
        out = SparseIntLattice()
        out.pivots = {p: dict(row) for p, row in self.pivots.items()}
        return out
