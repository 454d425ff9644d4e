"""The classical linear-form families of the SU(n), Sp(n) and Spin(2n) full flags.

Their elementary symmetric functions generate the relation ideals of
SU(n)/T and Sp(n)/T, and `spin_relations_reduced` gives the Spin(2n)/T
presentation; the acceptance tests compare these against the rings the
package computes.
"""

from schubert.cohomology import elementary_symmetric
from schubert.intpoly import IntPolynomial, PolyRing


def _unit(rank, i):
    return tuple(int(t == i) for t in range(1, rank + 1))


def _diff(rank, i, j):
    return tuple(int(t == i) - int(t == j) for t in range(1, rank + 1))


def special_unitary_forms(n: int):
    """The n linear forms whose e_r generate the SU(n)/T relation ideal."""
    if n < 2:
        raise ValueError("need n >= 2")
    rank = n - 1
    forms = [_unit(rank, 1)]
    forms += [_diff(rank, k, k - 1) for k in range(2, n)]
    forms.append(tuple(-x for x in _unit(rank, rank)))
    return forms


def symplectic_forms(n: int):
    """The 2n symmetric forms (+-) for Sp(n)/T; odd e_r vanish."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = [_unit(n, 1), tuple(-x for x in _unit(n, 1))]
    for k in range(2, n + 1):
        d = _diff(n, k, k - 1)
        out += [d, tuple(-x for x in d)]
    return out


def spin_even_forms(n: int):
    """The n linear forms entering the Spin(2n)/T invariants; the head is w1."""
    if n < 4:
        raise ValueError("need n >= 4")
    forms = [_unit(n, 1)]
    forms += [_diff(n, i, i - 1) for i in range(2, n - 1)]
    forms.append(
        tuple(
            int(t == n - 1) + int(t == n) - int(t == n - 2) for t in range(1, n + 1)
        )
    )
    forms.append(_diff(n, n - 1, n))
    return forms


def spin_relations(n: int):
    """Relations and class words for the even-spin full flag Spin(2n)/T.

    Returns (ring, relations, words): generators w1..wn and y2..y_{n-1}
    with y_k the class of the word (n-k, ..., n-1); y_1 means w_{n-1}.
    Relation families: 2y_i - c_i (doubling), the even-index reductions
    y_2j = y_j^2 - 2 y_{j-1} y_{j+1} + ..., and the top quadratic family.
    """
    names = [f"w{i}" for i in range(1, n + 1)] + [f"y{k}" for k in range(2, n)]
    degs = [1] * n + list(range(2, n))
    ring = PolyRing(tuple(names), tuple(degs))

    def y(r):
        if r == 1:
            return ring.variable(f"w{n - 1}")
        return ring.variable(f"y{r}")

    cs = elementary_symmetric(ring, [vec + (0,) * (n - 2) for vec in spin_even_forms(n)])
    relations = []
    for i in range(1, n):
        relations.append(2 * y(i) - cs[i - 1])
    for j in range(1, (n - 1) // 2 + 1):
        rel = y(2 * j) + (-1) ** j * y(j) ** 2
        for r in range(1, j):
            rel = rel + 2 * (-1) ** r * y(r) * y(2 * j - r)
        relations.append(rel)
    for k in range((n + 1) // 2, n):
        rel = (-1) ** k * y(k) ** 2
        for r in range(2 * k - n + 1, k):
            rel = rel + 2 * (-1) ** r * y(r) * y(2 * k - r)
        relations.append(rel)
    words = {f"w{i}": (i,) for i in range(1, n + 1)}
    for k in range(2, n):
        words[f"y{k}"] = tuple(range(n - k, n))
    return ring, relations, words


def spin_relations_reduced(n: int):
    """The even-spin relations with even-index y's substituted away.

    Every y_2r is replaced by the polynomial the quadratic family solves
    it to, leaving generators w1..wn and the odd-index y's; the doubling
    and top-quadratic relations survive the substitution.
    """
    ring0, rels0, words0 = spin_relations(n)
    names = [f"w{i}" for i in range(1, n + 1)]
    degs = [1] * n
    for k in range(3, n, 2):
        names.append(f"y{k}")
        degs.append(k)
    ring = PolyRing(tuple(names), tuple(degs))

    images: dict[str, IntPolynomial] = {}

    def y_img(r: int) -> IntPolynomial:
        if r == 1:
            return ring.variable(f"w{n - 1}")
        if r % 2 == 1:
            return ring.variable(f"y{r}")
        name = f"y{r}"
        if name not in images:
            j = r // 2
            out = (-1) ** (j - 1) * y_img(j) ** 2
            for k in range(1, j):
                out = out + 2 * (-1) ** (k - 1) * y_img(k) * y_img(2 * j - k)
            images[name] = out
        return images[name]

    mapping = {f"y{k}": y_img(k) for k in range(2, n, 2)}
    n_delta = n - 1
    n_xi = (n - 1) // 2
    keep = rels0[:n_delta] + rels0[n_delta + n_xi :]
    relations = [rel.substitute(mapping, ring) for rel in keep]
    words = {name: words0[name] for name in names}
    return ring, relations, words
