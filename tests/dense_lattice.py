"""Dense integer row lattice: the test oracle for `SparseIntLattice`.

The package keeps only the sparse lattice; this dense version in Z^dim,
with its own echelon sweep over list vectors, stays here so the sparse one
can be compared against it.
"""


def _xgcd(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0, by recursive Euclid.

    Kept apart from the package's iterative version, so a fault there is
    not shared by this oracle.
    """
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _xgcd(b, a % b)
    return g, y, x - (a // b) * y


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
