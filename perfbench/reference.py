"""Reference values for the benchmark's correctness gates.

Nothing here imports the package under test.  The gates compare the
package's outputs with:

* a small Weyl-group model of its own (Cartan matrices built from the
  Dynkin diagrams, elements identified by their image of rho);
* Chevalley's formula, evaluated by the O(m*n) coroot walk along a reduced
  word of the target;
* the Poincare polynomial of G/P from the degrees of the Weyl groups;
* the published presentations of F4/P1 and E6/P2, compared through an
  integer Hermite reduction of its own.

Cartan matrices use the package's storage convention,
``cm[i][j] = <alpha_i, alpha_j^vee>`` with Bourbaki node numbering.
"""

from __future__ import annotations

import re
from math import gcd

# -------------------------------------------------------------- root data

# Bourbaki diagrams: simple bonds (i, j), and for F4 the double bond 2 => 3
# with alpha_2 long.
_E_EDGES = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]


def cartan(lie: str) -> list[list[int]]:
    """Cartan matrix of E6, E7, E8 or F4 (0-based rows, cm[i][j] = <a_i, a_j^vee>)."""
    fam, n = lie[0], int(lie[1:])
    cm = [[2 * (i == j) for j in range(n)] for i in range(n)]
    if fam == "E" and 6 <= n <= 8:
        for a, b in _E_EDGES:
            if a <= n and b <= n:
                cm[a - 1][b - 1] = cm[b - 1][a - 1] = -1
    elif fam == "F" and n == 4:
        cm[0][1] = cm[1][0] = -1
        cm[2][3] = cm[3][2] = -1
        cm[1][2], cm[2][1] = -2, -1
    else:
        raise ValueError(f"no reference Cartan matrix for {lie}")
    return cm


# Degrees of the basic invariants; W(q) = prod [d]_q.
WEYL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "F4": (2, 6, 8, 12),
}
# Degrees of the Levi Weyl group W_P for the parabolics the benchmark uses
# (K lists the nodes excluded from P).
LEVI_DEGREES = {
    ("E6", (2,)): (2, 3, 4, 5, 6),  # A5
    ("E7", (2,)): (2, 3, 4, 5, 6, 7),  # A6
    ("F4", (1,)): (2, 4, 6),  # C3
}


def _qint(d):
    return [1] * d


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _polydiv_exact(a, b):
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c, r = divmod(a[i + len(b) - 1], b[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


def betti(lie: str, K) -> list[int]:
    """Level sizes of W^P: coefficients of prod[d_i]_q / prod[e_j]_q."""
    K = tuple(sorted(K))
    n = int(lie[1:])
    num = [1]
    for d in WEYL_DEGREES[lie]:
        num = _polymul(num, _qint(d))
    if K == tuple(range(1, n + 1)):
        return num
    den = [1]
    for d in LEVI_DEGREES[(lie, K)]:
        den = _polymul(den, _qint(d))
    return _polydiv_exact(num, den)


class RootSystem:
    """Weyl-group arithmetic in fundamental-weight coordinates."""

    def __init__(self, lie: str):
        self.lie = lie
        self.cm = cartan(lie)
        self.n = len(self.cm)
        self.rho = (1,) * self.n
        self.pos_coroots = self._positive_coroots()

    def reflect(self, k: int, v):
        """s_k (1-based) on a weight: v - <v, a_k^vee> a_k."""
        c = v[k - 1]
        if not c:
            return v
        row = self.cm[k - 1]
        return tuple(x - c * a for x, a in zip(v, row))

    def apply_word(self, word, v):
        for k in reversed(word):
            v = self.reflect(k, v)
        return v

    def key(self, word):
        """w(rho): a complete invariant of the element with this word."""
        return self.apply_word(word, self.rho)

    def _positive_coroots(self):
        """{positive coroot: its root in weight coordinates}, both as tuples.

        Roots (simple-root coordinates) and coroots (simple-coroot
        coordinates) are reflected together from the simple pairs, so
        each coroot is paired with its own root.
        """
        n, cm = self.n, self.cm
        simple = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        pairs = {e: e for e in simple}  # coroot -> root
        frontier = list(simple)
        while frontier:
            nxt = []
            for g in frontier:
                a = pairs[g]
                for k in range(n):
                    # s_k(g) = g - <a_k, g> a_k^vee ; s_k(a) = a - <a, a_k^vee> a_k
                    pg = sum(cm[k][i] * g[i] for i in range(n))
                    if pg:
                        img = g[:k] + (g[k] - pg,) + g[k + 1:]
                        if min(img) >= 0 and img not in pairs:
                            pa = sum(a[i] * cm[i][k] for i in range(n))
                            pairs[img] = a[:k] + (a[k] - pa,) + a[k + 1:]
                            nxt.append(img)
            frontier = nxt
        return {
            g: tuple(sum(a[i] * cm[i][j] for i in range(n)) for j in range(n))
            for g, a in sorted(pairs.items())
        }

    def length_of_key(self, lam) -> int:
        """l(w) from w(rho): the positive coroots pairing negatively with it."""
        return sum(
            1 for g in self.pos_coroots if sum(a * b for a, b in zip(lam, g)) < 0
        )

    def is_reduced(self, word) -> bool:
        v = self.rho
        for k in reversed(word):
            if v[k - 1] <= 0:
                return False
            v = self.reflect(k, v)
        return True

    def is_minimal_rep(self, word, K) -> bool:
        """No right descent outside K, read off w^{-1}(rho)."""
        inv = self.apply_word(tuple(reversed(word)), self.rho)
        return all(inv[j] > 0 for j in range(self.n) if j + 1 not in K)

    def chevalley_column(self, word, i: int):
        """{u(rho): coeff} with s_w appearing in omega_i * s_u with that coefficient.

        Coroot walk along the reduced word (i_1..i_m) of w: dropping letter
        p gives u = w s_beta with beta^vee = s_{i_m}..s_{i_{p+1}}(a_{i_p}^vee),
        and the coefficient is the a_i^vee coordinate of beta^vee.  Both the
        suffix action on coroots and the prefix action on weights are
        updated in O(n) per letter.
        """
        n, cm = self.n, self.cm
        m = len(word)
        # suffix S_p = s_{i_m} .. s_{i_{p+1}} on simple coroots, as columns
        cols = [tuple(int(r == c) for r in range(n)) for c in range(n)]
        betas = [None] * m
        for p in range(m - 1, -1, -1):
            k = word[p] - 1
            betas[p] = cols[k]
            ck = cols[k]
            for j in range(n):
                a = cm[k][j]
                if a and j != k:
                    cols[j] = tuple(x - a * y for x, y in zip(cols[j], ck))
            cols[k] = tuple(-y for y in ck)
        # prefix P_{p-1} = s_{i_1} .. s_{i_{p-1}} on fundamental weights
        images = [tuple(int(r == c) for r in range(n)) for c in range(n)]
        w_rho = self.key(word)
        out = {}
        for p in range(m):
            k = word[p] - 1
            alpha = [0] * n  # P_{p-1}(a_k) = sum_j cm[k][j] P_{p-1}(omega_j)
            for j in range(n):
                a = cm[k][j]
                if a:
                    img = images[j]
                    for r in range(n):
                        alpha[r] += a * img[r]
            beta = betas[p]
            coeff = beta[i - 1]
            if coeff:
                height = sum(beta)
                u_rho = tuple(x + height * y for x, y in zip(w_rho, alpha))
                out[u_rho] = out.get(u_rho, 0) + coeff
            images[k] = tuple(x - y for x, y in zip(images[k], alpha))
        return out

    def chevalley_product(self, word, i: int):
        """{v(rho): coeff} for omega_i * s_u in H*(G/B), u given by a reduced word.

        Chevalley: the sum over positive beta with l(u s_beta) = l(u) + 1 of
        <omega_i, beta^vee> s_{u s_beta}.
        """
        u_rho = self.key(word)
        length = len(word)
        out = {}
        for g, beta in self.pos_coroots.items():
            coeff = g[i - 1]
            if not coeff:
                continue
            # u s_beta (rho) = u(rho) - <rho, beta^vee> u(beta)
            u_beta = self.apply_word(word, beta)
            v = tuple(x - sum(g) * y for x, y in zip(u_rho, u_beta))
            if self.length_of_key(v) == length + 1:
                out[v] = out.get(v, 0) + coeff
        return out


# ------------------------------------------------- published presentations
# Generator words and base relations as published for the parabolic
# quotients (polynomial degrees are half the cohomological degree).
PUBLISHED = {
    ("F4", (1,)): {
        "words": {"w1": (1,), "y3": (3, 2, 1), "y4": (4, 3, 2, 1), "y6": (3, 2, 4, 3, 2, 1)},
        "relations": [
            "2*y3 - w1^3",
            "2*y6 + y3^2 - 3*w1^2*y4",
            "3*y4^2 - w1^2*y6",
            "y6^2 - y4^3",
        ],
        "relation_degrees": (3, 6, 8, 12),
    },
    ("E6", (2,)): {
        "words": {"w2": (2,), "y3": (5, 4, 2), "y4": (6, 5, 4, 2), "y6": (1, 3, 6, 5, 4, 2)},
        "relations": [
            "2*y6 + y3^2 - 3*w2^2*y4 + 2*w2^3*y3 - w2^6",
            "3*y4^2 - 6*w2*y3*y4 + w2^2*y6 + 5*w2^2*y3^2 - 2*w2^5*y3",
            "2*y3*y6 - w2^3*y6",
            "y6^2 - y4^3",
        ],
        "relation_degrees": (6, 8, 9, 12),
    },
}

_TERM = re.compile(r"\s*([+-]?)\s*([^+-]+)")


def parse_poly(text: str, names) -> dict:
    """'2*y6 - w2^3*y3' -> {exponent tuple: coeff} over the given variable order."""
    out = {}
    for sign, body in _TERM.findall(text):
        coeff = -1 if sign == "-" else 1
        exp = [0] * len(names)
        for factor in body.strip().split("*"):
            factor = factor.strip()
            if factor.isdigit():
                coeff *= int(factor)
                continue
            var, _, power = factor.partition("^")
            exp[names.index(var)] += int(power) if power else 1
        key = tuple(exp)
        out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


def poly_degree(poly, weights) -> int:
    degs = {sum(e * w for e, w in zip(exp, weights)) for exp in poly}
    if len(degs) != 1:
        raise ValueError("inhomogeneous polynomial")
    return degs.pop()


def monomials(weights, d):
    """Exponent tuples of weighted degree d."""
    if not weights:
        return [()] if d == 0 else []
    out = []
    for k in range(d // weights[0] + 1):
        for rest in monomials(weights[1:], d - k * weights[0]):
            out.append((k,) + rest)
    return out


def _poly_times_monomial(poly, mono):
    return {tuple(a + b for a, b in zip(e, mono)): c for e, c in poly.items()}


def ideal_rows(relations, weights, d):
    """Monomial multiples of the relations in degree d, as dicts."""
    rows = []
    for rel in relations:
        r = poly_degree(rel, weights)
        if r <= d:
            rows.extend(_poly_times_monomial(rel, mono) for mono in monomials(weights, d - r))
    return rows


# ---------------------------------------------------- integer elimination


def hermite_basis(rows):
    """Echelon basis {pivot: row} of the Z-span of sparse rows {col: int}."""
    basis = {}
    for row in rows:
        _insert(basis, {k: v for k, v in row.items() if v})
    return basis


def _insert(basis, vec):
    while vec:
        p = min(vec)
        if p not in basis:
            if vec[p] < 0:
                vec = {k: -v for k, v in vec.items()}
            basis[p] = vec
            return
        b = basis[p]
        a, c = vec[p], b[p]
        if a % c == 0:
            vec = _combine(vec, 1, b, -(a // c))
            continue
        # replace the pivot row by the gcd combination, re-insert the rest
        g, x, y = _xgcd(c, a)
        new_pivot = _combine(b, x, vec, y)
        rest = _combine(b, a // g, vec, -(c // g))
        basis[p] = new_pivot
        vec = rest


def _combine(a, ca, b, cb):
    out = {k: ca * v for k, v in a.items()} if ca != 1 else dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + cb * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _xgcd(a, b):
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def in_span(basis, vec) -> bool:
    vec = {k: v for k, v in vec.items() if v}
    while vec:
        p = min(vec)
        b = basis.get(p)
        if b is None or vec[p] % b[p]:
            return False
        vec = _combine(vec, 1, b, -(vec[p] // b[p]))
    return True


def smith_invariants(matrix, ncols):
    """(free rank, torsion) of Z^ncols / rowspan(matrix)."""
    m = [list(r) for r in matrix if any(r)]
    diag = []
    while m:
        # pivot on a smallest nonzero entry until it divides its row and column
        while True:
            i, j = min(
                ((i, j) for i, r in enumerate(m) for j, v in enumerate(r) if v),
                key=lambda ij: abs(m[ij[0]][ij[1]]),
            )
            piv = m[i][j]
            done = True
            for r in range(len(m)):
                if r != i and m[r][j]:
                    q = m[r][j] // piv
                    m[r] = [a - q * b for a, b in zip(m[r], m[i])]
                    done = done and not m[r][j]
            for c in range(len(m[i])):
                if c != j and m[i][c]:
                    q = m[i][c] // piv
                    for r in range(len(m)):
                        m[r][c] -= q * m[r][j]
                    done = done and not m[i][c]
            if done:
                break
        diag.append(abs(piv))
        m = [r[:j] + r[j + 1:] for k, r in enumerate(m) if k != i]
        m = [r for r in m if any(r)]
    # the pivots are a diagonal form; invariant factors follow from gcds
    factors = _invariant_factors(diag)
    return ncols - len(diag), tuple(d for d in factors if d != 1)


def _invariant_factors(diag):
    d = sorted(diag)
    changed = True
    while changed:
        changed = False
        for a in range(len(d)):
            for b in range(a + 1, len(d)):
                g = gcd(d[a], d[b])
                if g != d[a]:
                    d[a], d[b] = g, d[a] * d[b] // g
                    changed = True
        d.sort()
    return d
