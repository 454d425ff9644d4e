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
  positive invariant factors in a divisibility chain.
* `cokernel_structure(M)` describes Z^cols / (row span of M).
* `IntLattice` maintains an integer row span incrementally (membership is
  divisibility-aware, so it is genuine lattice membership, not rational).

Transforms are re-multiplied against the input as an exact postcondition,
and for sizes up to 12 the transform determinants are checked to be +-1.
A failed postcondition raises ArithmeticError (also under ``python -O``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

DET_CHECK_LIMIT = 12


def _copy(M):
    return [list(row) for row in M]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mat_mul(A, B):
    cols = len(B[0]) if B else 0
    return [
        [sum(a * B[k][j] for k, a in enumerate(row) if a) for j in range(cols)]
        for row in A
    ]


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
    """Exact determinant (fraction-based Gaussian elimination)."""
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


def hermite_with_transform(M):
    """(H, U) with U * M = H in row Hermite normal form."""
    h = _copy(M)
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = _identity(rows)
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
                u[piv], u[pivot_row] = u[pivot_row], u[piv]
            done = True
            pv = h[pivot_row][col]
            for r in range(pivot_row + 1, rows):
                if h[r][col]:
                    q = h[r][col] // pv
                    if q:
                        h[r] = [a - q * b for a, b in zip(h[r], h[pivot_row])]
                        u[r] = [a - q * b for a, b in zip(u[r], u[pivot_row])]
                    if h[r][col]:
                        done = False
            if done:
                break
        if h[pivot_row][col]:
            if h[pivot_row][col] < 0:
                h[pivot_row] = [-x for x in h[pivot_row]]
                u[pivot_row] = [-x for x in u[pivot_row]]
            pv = h[pivot_row][col]
            for r in range(pivot_row):
                q = h[r][col] // pv
                if q:
                    h[r] = [a - q * b for a, b in zip(h[r], h[pivot_row])]
                    u[r] = [a - q * b for a, b in zip(u[r], u[pivot_row])]
            pivot_row += 1
    _check_transform_product(u, M, h)
    return h, u


def _check_transform_product(u, m, h):
    if _mat_mul(u, _copy(m)) != h:
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


def solve_left(M, target):
    """Integer row vector x with x * M = target.

    Raises ValueError when no integer solution exists (target outside the
    integer row span of M).
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if len(target) != cols:
        raise ValueError("target length does not match matrix columns")
    h, u = hermite_with_transform(M)
    t = list(target)
    y = [0] * rows
    for r in range(rows):
        j = next((c for c in range(cols) if h[r][c]), None)
        if j is None:
            break
        q, rem = divmod(t[j], h[r][j])
        if rem:
            raise ValueError("no integer solution: pivot does not divide")
        if q:
            y[r] = q
            t = [a - q * b for a, b in zip(t, h[r])]
    if any(t):
        raise ValueError("no integer solution: target outside row span")
    return [sum(y[r] * u[r][i] for r in range(rows)) for i in range(rows)]


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
    """(P, D, Q) with P * M * Q = D in Smith normal form."""
    d = _copy(M)
    rows = len(d)
    cols = len(d[0]) if rows else 0
    p = _identity(rows)
    q = _identity(cols)

    def row_op(r1, r2, k):  # row r1 -= k * row r2
        d[r1] = [a - k * b for a, b in zip(d[r1], d[r2])]
        p[r1] = [a - k * b for a, b in zip(p[r1], p[r2])]

    def col_op(c1, c2, k):  # col c1 -= k * col c2
        for r in range(rows):
            d[r][c1] -= k * d[r][c2]
        for r in range(cols):
            q[r][c1] -= k * q[r][c2]

    def row_swap(r1, r2):
        d[r1], d[r2] = d[r2], d[r1]
        p[r1], p[r2] = p[r2], p[r1]

    def col_swap(c1, c2):
        for r in range(rows):
            d[r][c1], d[r][c2] = d[r][c2], d[r][c1]
        for r in range(cols):
            q[r][c1], q[r][c2] = q[r][c2], q[r][c1]

    t = 0
    while True:
        entries = [
            (abs(d[r][c]), r, c)
            for r in range(t, rows)
            for c in range(t, cols)
            if d[r][c]
        ]
        if not entries:
            break
        _, r0, c0 = min(entries)
        if r0 != t:
            row_swap(t, r0)
        if c0 != t:
            col_swap(t, c0)
        again = False
        for r in range(t + 1, rows):
            if d[r][t]:
                kq = d[r][t] // d[t][t]
                row_op(r, t, kq)
                if d[r][t]:
                    again = True
        for c in range(t + 1, cols):
            if d[t][c]:
                kq = d[t][c] // d[t][t]
                col_op(c, t, kq)
                if d[t][c]:
                    again = True
        if again:
            continue
        # divisibility fix: pivot must divide the rest of the block
        offender = None
        for r in range(t + 1, rows):
            for c in range(t + 1, cols):
                if d[r][c] % d[t][t]:
                    offender = r
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # add offending row to pivot row
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            p[t] = [-x for x in p[t]]
        t += 1
        if t >= min(rows, cols):
            break
    if _mat_mul(_mat_mul(p, _copy(M)), q) != d:
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


def cokernel_structure(M) -> AbelianGroupStructure:
    """Structure of Z^cols modulo the row span of M."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if rows == 0 or cols == 0:
        return AbelianGroupStructure(cols)
    _, d, _ = smith_with_transforms(M)
    invariants = [d[i][i] for i in range(min(rows, cols)) if d[i][i]]
    torsion = tuple(x for x in invariants if x > 1)
    return AbelianGroupStructure(cols - len(invariants), torsion)


@dataclass
class DiagonalizationResult:
    P: list
    Q: list
    D: list


def diagonalize_with_unit_minor(M) -> DiagonalizationResult:
    """P, Q with P*M*Q = identity stacked over zero rows.

    Requires M (rows x cols) to present Z^cols exactly: full column rank
    and trivial cokernel.  Raises ValueError otherwise.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    p, d, q = smith_with_transforms(M)
    invariants = [d[i][i] for i in range(min(rows, cols)) if d[i][i]]
    if len(invariants) < cols or any(x != 1 for x in invariants):
        raise ValueError(
            f"matrix does not present Z^{cols} with unit minors "
            f"(invariant factors {invariants})"
        )
    return DiagonalizationResult(p, q, d)


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
        v = {k: c for k, c in vec.items() if c}
        while v:
            p = min(v)
            row = self.pivots.get(p)
            if row is None or v[p] % row[p]:
                return False
            v = self._combine(1, v, -(v[p] // row[p]), row)
        return True

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
        """Fully reduced rows as sorted item tuples; equal lattices agree."""
        out = []
        for p in sorted(self.pivots):
            v = dict(self.pivots[p])
            res = {}
            while v:
                q = min(v)
                row = self.pivots.get(q)
                if q != p and row is not None:
                    k = v[q] // row[q]
                    if k:
                        v = self._combine(1, v, -k, row)
                if v.get(q):
                    res[q] = v.pop(q)
                else:
                    v.pop(q, None)
            out.append(tuple(sorted(res.items())))
        return tuple(out)

    def copy(self) -> "SparseIntLattice":
        out = SparseIntLattice()
        out.pivots = {p: dict(row) for p, row in self.pivots.items()}
        return out


class IntLattice:
    """An integer row lattice in Z^dim with incremental inserts.

    Rows are kept in echelon form (strictly increasing pivot columns,
    positive pivots, zeros left of each pivot), so membership testing is a
    divisibility-aware sweep.
    """

    def __init__(self, dim: int, rows=()):
        self.dim = dim
        self.rows = []  # sorted by pivot column
        for row in rows:
            self.add(row)

    def _pivot(self, row):
        for c, x in enumerate(row):
            if x:
                return c
        return None

    def add(self, vec) -> bool:
        """Insert a vector; returns True if the lattice grew."""
        v = list(vec)
        if len(v) != self.dim:
            raise ValueError(f"vector of length {len(v)} in Z^{self.dim}")
        changed = False
        idx = 0
        for c in range(self.dim):
            if v[c] == 0:
                continue
            while idx < len(self.rows) and self._pivot(self.rows[idx]) < c:
                idx += 1
            if idx < len(self.rows) and self._pivot(self.rows[idx]) == c:
                row = self.rows[idx]
                if v[c] % row[c] == 0:
                    k = v[c] // row[c]
                    v = [a - k * b for a, b in zip(v, row)]
                else:
                    g, x, y = _xgcd(row[c], v[c])
                    new_row = [x * a + y * b for a, b in zip(row, v)]
                    k_row, k_v = row[c] // g, v[c] // g
                    v = [k_row * b - k_v * a for a, b in zip(row, v)]
                    self.rows[idx] = new_row
                    changed = True
            else:
                if v[c] < 0:
                    v = [-x for x in v]
                self.rows.insert(idx, v)
                return True
        return changed

    def __contains__(self, vec) -> bool:
        v = list(vec)
        idx = 0
        for c in range(self.dim):
            if v[c] == 0:
                continue
            while idx < len(self.rows) and self._pivot(self.rows[idx]) < c:
                idx += 1
            if (
                idx < len(self.rows)
                and self._pivot(self.rows[idx]) == c
                and v[c] % self.rows[idx][c] == 0
            ):
                k = v[c] // self.rows[idx][c]
                v = [a - k * b for a, b in zip(v, self.rows[idx])]
            else:
                return False
        return True

    def reduce(self, vec):
        """Canonical residue of a vector modulo the lattice (floor reduction)."""
        v = list(vec)
        idx = 0
        for c in range(self.dim):
            if v[c] == 0:
                continue
            while idx < len(self.rows) and self._pivot(self.rows[idx]) < c:
                idx += 1
            if idx < len(self.rows) and self._pivot(self.rows[idx]) == c:
                k = v[c] // self.rows[idx][c]
                if k:
                    v = [a - k * b for a, b in zip(v, self.rows[idx])]
        return v

    @property
    def rank(self) -> int:
        return len(self.rows)

    def is_full(self) -> bool:
        return self.rank == self.dim and all(
            row[c] == 1 for c, row in enumerate(self.rows)
        )

    def canonical_basis(self):
        """Fully reduced (HNF) basis rows, for lattice equality tests."""
        basis = [list(r) for r in self.rows]
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                pj = self._pivot(basis[j])
                k = basis[i][pj] // basis[j][pj]
                if k:
                    basis[i] = [a - k * b for a, b in zip(basis[i], basis[j])]
        return tuple(tuple(r) for r in basis)

    def copy(self) -> "IntLattice":
        out = IntLattice(self.dim)
        out.rows = [list(r) for r in self.rows]
        return out
