"""Structure constants of the Schubert basis.

For classes u_1..u_k and a target w with l(w) = sum l(u_t), fix the
minimized word (i_1..i_m) of w.  Each factor contributes the sum of x_I
over the size-l(u_t) position sets I whose increasing subword product
equals u_t; the structure constant is the triangular operator of the word's
Cartan matrix applied to the product of these sums.

By the exchange property a word of l(u) letters multiplies to u exactly
when each letter, read from the left, is a left descent of what is left of
u.  So subword search is a depth-first walk down from u: it takes position
p exactly when the remainder v has v^{-1}(alpha_{letter p}) < 0, peels that
letter off, and reaches the identity after l(u) steps.

`characteristic` evaluates this for a single target, and `expand_pair`
sweeps it over every target of a level for two factors, cached read-only
per unordered pair.  The operator's cost grows steeply with the word's
length, so on a complete table `expand_pair` reads a long product off a
shorter word by Poincare duality: for factor lengths a <= b and target
level r = a + b with c = lmax - r < b, c_{u,v}^w is the coefficient of
s_{v^vee} in s_u * s_{w^vee}, evaluated along the word of v^vee, of length
a + c instead of a + b.  The duals u^vee = tau(u) * w_top come from the
top class and the opposition involution tau, cached per level on the
table.  A truncated table has no top class and keeps the target's own
word.  Every product expansion, `expand_product` included, folds one
factor at a time through `expand_class_monomial`, which caches nothing:
the table caches only pair products, cover data and duals, each bounded by
the size of the table.  A factor of degree one skips the operator: by
Chevalley's formula the coefficient of s_w in omega_l * s_u, for a class
w = u * s_beta one level up, is the alpha_l^vee-coordinate of the coroot
beta^vee.  The pairs (w, beta^vee) of each class u ("cover data") are
built one level from the one below, with no word: a class w with least
left descent a is sigma_a * v for a class v one level down, and its drops
(the classes u with w = u * s_beta) are v itself, with beta = v^{-1}(alpha_a),
and sigma_a times each drop of v that lands in a class, with v's beta.
The same suffix gives the same beta, and left lengthening keeps every
right descent, so no other drop can land in a class.  The pairs are stored
per source u, so a product by omega_l reads only the rows of the vector's
own classes.  Any other factor goes through `expand_pair`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .weyl import (
    CosetTable,
    opposition_involution,
    reflection_pairs,
    right_multiply_rows,
    unpack_root,
)
from .cartan import cartan_matrix
from .triangular import cartan_matrix_of_word, evaluate_exponents


@dataclass(frozen=True, order=True)
class SchubertClass:
    """The i-th Schubert class of (complex) degree r, 1-based i."""

    r: int
    i: int

    def key(self):
        return (self.r, self.i)


@dataclass
class SchubertExpansion:
    """A Z-linear combination of the degree-`degree` Schubert classes."""

    degree: int
    coeffs: dict

    def __getitem__(self, cls: SchubertClass) -> int:
        return self.coeffs.get(cls, 0)

    def items(self):
        return sorted(self.coeffs.items())

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{v}*s[{c.r},{c.i}]" for c, v in self.items())


# ------------------------------------------------------------- subwords


def _subword_solutions(lie_type, letters, inv_rows, k):
    """0-based position tuples I with |I| = k whose product equals u.

    `inv_rows` is u's packed ``inv_root_rows`` and k = l(u).  A branch
    takes position p exactly when letters[p] is a left descent of the
    remainder (its packed row is negative), and right-multiplies the
    remainder's inverse by that reflection; after k steps the remainder is
    the identity.
    """
    m = len(letters)
    if k > m:
        return []
    pairs = reflection_pairs(lie_type)
    out = []

    def rec(pos, rows, chosen, need):
        if need == 0:
            out.append(chosen)
            return
        for p in range(pos, m - need + 1):
            j0 = letters[p] - 1
            if rows[j0] < 0:
                rec(p + 1, right_multiply_rows(rows, j0, pairs), chosen + (p,), need - 1)

    rec(0, inv_rows, (), k)
    return out


# ------------------------------------------------------------- characteristics


def _value_from_solutions(lie_type, letters, solution_lists):
    m = len(letters)
    poly = {(0,) * m: 1}
    for sols in sorted(solution_lists, key=len):
        nxt = {}
        for exp, c in poly.items():
            for positions in sols:
                e = list(exp)
                for p in positions:
                    e[p] += 1
                key = tuple(e)
                nxt[key] = nxt.get(key, 0) + c
        poly = nxt
    if m == 0:
        return poly.get((), 0)
    return evaluate_exponents(cartan_matrix_of_word(lie_type, letters), poly)


def _characteristic_on_word(lie_type, letters, factors):
    """The formula along `letters` for the factor elements (0 without a subword)."""
    solution_lists = []
    for u in factors:
        sols = _subword_solutions(lie_type, letters, u.inv_root_rows, len(u.word))
        if not sols:
            return 0
        solution_lists.append(sols)
    return _value_from_solutions(lie_type, letters, solution_lists)


def characteristic(table: CosetTable, w: SchubertClass, factors) -> int:
    """The coefficient of s_w in the product of the factor classes.

    Preconditions: all classes belong to `table` and l(w) equals the sum of
    the factor lengths.
    """
    factors = list(factors)
    total = sum(f.r for f in factors)
    if total != w.r:
        raise ValueError(
            f"degree mismatch: target has length {w.r}, factors sum to {total}"
        )
    target = table.element(w.r, w.i)
    elements = [table.element(f.r, f.i) for f in factors]
    if len(factors) == 1:
        return 1 if factors[0] == w else 0
    return _characteristic_on_word(table.lie_type, target.word, elements)


def expand_product(table: CosetTable, factors) -> SchubertExpansion:
    """Expand a product of Schubert classes in the Schubert basis.

    A product whose degree exceeds the dimension of a complete table is
    zero; on a truncated table that degree is out of reach and errors.
    """
    factors = [f if isinstance(f, SchubertClass) else SchubertClass(*f) for f in factors]
    degree = sum(f.r for f in factors)
    for f in factors:
        table.element(f.r, f.i)  # validates membership
    if degree > table.lmax:
        if table.complete:
            return SchubertExpansion(degree, {})
        raise ValueError(
            f"degree {degree} exceeds the truncated table (max length {table.lmax})"
        )
    coeffs = expand_class_monomial(table, factors)
    return SchubertExpansion(degree, {SchubertClass(*k): v for k, v in coeffs.items()})


# ---------------------------------------------------- cached fast paths
#
# Internal vectors are plain dicts {(r, i): coeff} on table classes.


@lru_cache(maxsize=None)
def _root_lengths(lie_type):
    """Squared lengths of the simple roots as small ints, the shortest being 1.

    C[i][j] = 2(alpha_i, alpha_j)/(alpha_j, alpha_j), so along each bond
    |alpha_j|^2 / |alpha_i|^2 = C[j][i] / C[i][j], and the diagram is
    connected.  Those ratios are 1, 2, 3, 1/2 or 1/3, and one type has at
    most two root lengths, so starting node 1 at 6 keeps every length an
    int.
    """
    c = cartan_matrix(lie_type)
    n = lie_type.rank
    lengths = [6] + [0] * (n - 1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if c[i][j] and not lengths[j]:
                lengths[j] = lengths[i] * c[j][i] // c[i][j]
                todo.append(j)
    shortest = min(lengths)
    return tuple(x // shortest for x in lengths)


def _cover_data(table: CosetTable, r: int):
    """Per class u of level r - 1: the pairs (k, beta^vee) with (r, k) = u * s_beta.

    Rows are in increasing k.  By Chevalley's formula the coefficient of
    s_w in omega_l * s_u is the alpha_l^vee-coordinate of beta^vee.  The
    pairs come from the "drops" of each target w of level r: the classes u
    of level r - 1 left by deleting one letter of w's word, each with its
    beta.  They are built level by level, each from the drops of the level
    below, with no word and no ``WeylElement``.  Let a be w's least left
    descent (the first negative row of its key) and v = sigma_a * w, the
    class of level r - 1 whose key is w's key right-multiplied by sigma_a.
    The word of w is a followed by the word of v, so

    * deleting a leaves v, with beta = v^{-1}(alpha_a), row a of v's key;
    * deleting a later letter leaves sigma_a * u' for the drop u' of v at
      that letter, with the same beta, since the letters right of it, which
      give beta, are the same.  It is a drop of w exactly when sigma_a * u'
      is a class of level r - 1.  The drops of v that the level below keeps
      are all that can pass: left lengthening keeps every right descent, so
      a u' that is not reduced or not in W^P never lands in level r - 1.

    beta^vee = 2 beta / (beta, beta) has alpha_l^vee-coordinate
    beta_l * |alpha_l|^2 / |alpha_a|^2, as W preserves root length; the
    division is checked to be exact.  Each level's cache entry holds its
    rows by source and its drops by target, which the level above reads.
    Levels are filled upward from the highest one cached; level 1, whose
    classes sigma_a drop only to the identity, is kept only when asked for.
    """
    cache = table._cache
    cached = cache.get(("cover", r))
    if cached is not None:
        return cached[0]
    s = r - 1
    while s > 0 and ("cover", s) not in cache:
        s -= 1
    # the identity, alone on level 0, has no drops
    drops = cache[("cover", s)][1] if s else ((),)
    for level in range(s + 1, r + 1):
        entry = _cover_step(table, level, drops)
        drops = entry[1]
        if level > 1 or level == r:
            cache[("cover", level)] = entry
    return entry[0]


def _cover_step(table: CosetTable, r: int, drops_below):
    """The cache entry of level r from the drops by target of level r - 1."""
    lt = table.lie_type
    n = lt.rank
    pairs = reflection_pairs(lt)
    lengths = _root_lengths(lt)
    index = table._level_index(r - 1)
    keys_below = table.keys[r - 2] if r > 1 else ()
    coroots = {}
    covers = [[] for _ in range(table.beta(r - 1))]
    drops = []
    for k, key in enumerate(table.keys[r], start=1):
        j = 0
        while key[j] > 0:
            j += 1
        v_key = right_multiply_rows(key, j, pairs)
        v = index[v_key]
        beta = v_key[j]
        coroot = coroots.get((j, beta))
        if coroot is None:
            coroot = coroots[j, beta] = _coroot(unpack_root(beta, n), lengths, j)
        row = [(v, coroot)]
        for u_below, co in drops_below[v - 1]:
            u = index.get(right_multiply_rows(keys_below[u_below - 1], j, pairs))
            if u is not None:
                row.append((u, co))
        drops.append(tuple(row))
        for u, co in row:
            covers[u - 1].append((k, co))
    return tuple(map(tuple, covers)), tuple(drops)


def _coroot(root, lengths, j):
    """Simple-coroot coordinates of beta^vee for a root beta as long as alpha_{j+1}."""
    out = []
    for x, length in zip(root, lengths):
        q, rem = divmod(x * length, lengths[j])
        if rem:
            raise ArithmeticError(f"coroot of {root} is not integral")
        out.append(q)
    return tuple(out)


def _dual(table: CosetTable, r: int):
    """Keys of the Poincare duals of the classes of level r, cached per level.

    The dual of u is u^vee = tau(u) * w_top = w0 * u * w0_P, of length
    lmax - l(u), where tau is the opposition involution.  Its key, the
    packed rows of w_top^{-1} * tau(u)^{-1}, is the top class's key
    right-multiplied by sigma_tau(a) for each letter a of u's word, last
    letter first.  Only a complete table has a top class; a dual that is
    missing or on another level raises ValueError.
    """
    key = ("dual", r)
    cached = table._cache.get(key)
    if cached is not None:
        return cached
    if not table.complete:
        raise ValueError("Poincare duality needs a complete table")
    lt = table.lie_type
    pairs = reflection_pairs(lt)
    tau = opposition_involution(lt)
    top = table.keys[table.lmax][0]
    level = table.lmax - r
    duals = []
    for i, u in enumerate(table.level(r), start=1):
        rows = top
        for a in reversed(u.word):
            rows = right_multiply_rows(rows, tau[a - 1] - 1, pairs)
        dual = table.index_of_inv_root_rows(rows, level)
        if dual is None:
            raise ValueError(
                f"class ({r}, {i}) has no Poincare dual on level {level} of the table"
            )
        duals.append(dual)
    table._cache[key] = duals = tuple(duals)
    return duals


def expand_pair(table: CosetTable, u: SchubertClass, v: SchubertClass):
    """{target key: coefficient} for s_u * s_v, cached symmetrically, read-only.

    Let a <= b be the factor lengths and r = a + b the target level.  The
    coefficient of s_w is evaluated along the word of w, of length a + b,
    unless the table is complete and c = lmax - r is less than b.  Then
    Poincare duality gives c_{u,v}^w = c_{u,w^vee}^{v^vee}, both being the
    integral of s_u * s_v * s_{w^vee}, and every target is evaluated along
    the one word of v^vee (u the shorter factor), of length a + c.
    """
    a, b = sorted([u.key(), v.key()])
    key = ("pair", a, b)
    cached = table._cache.get(key)
    if cached is not None:
        return cached
    r = a[0] + b[0]
    if r <= table.lmax:
        lt = table.lie_type
        short, long = table.element(*a), table.element(*b)
        if table.complete and table.lmax - r < b[0]:
            letters = table.element(*_dual(table, b[0])[b[1] - 1]).word
            values = (
                _characteristic_on_word(lt, letters, [short, table.element(*d)])
                for d in _dual(table, r)
            )
        else:
            values = (
                _characteristic_on_word(lt, w.word, [short, long]) for w in table.level(r)
            )
        result = {(r, i): val for i, val in enumerate(values, start=1) if val}
    elif table.complete:
        result = {}
    else:
        raise ValueError(f"degree {r} exceeds the truncated table")
    table._cache[key] = result = MappingProxyType(result)
    return result


def multiply_vec_by_class(table: CosetTable, vec, cls: SchubertClass):
    """Product of a degree-homogeneous vector with one class, as a vector.

    A key that names no class raises KeyError, and otherwise keys on more
    than one level raise ValueError, whichever the branch.
    """
    if not vec:
        return {}
    r_in = next(iter(vec))[0]
    if any(r != r_in for r, _ in vec):
        for ukey in vec:
            table.check_class(*ukey)
        raise ValueError("vector is not homogeneous")
    r_target = r_in + cls.r
    if r_target > table.lmax:
        if table.complete:
            return {}
        raise ValueError(f"degree {r_target} exceeds the truncated table")
    if cls.r <= 1 or r_in == 0:  # validates membership; expand_pair checks the others
        table.check_class(cls.r, cls.i)
        for ukey in vec:
            table.check_class(*ukey)
    if cls.r == 0:
        return dict(vec)
    if r_in == 0:  # c times the identity
        return {cls.key(): c for c in vec.values() if c}
    if cls.r == 1:
        # sigma_a's key has its first negative row at a - 1
        key = table.keys[1][cls.i - 1]
        l0 = next(j for j, row in enumerate(key) if row < 0)
        covers = _cover_data(table, r_target)
    out = {}
    for ukey, cu in vec.items():
        if cls.r == 1:  # Chevalley: the coefficient is beta^vee's l-th coordinate
            row = (((r_target, k), coroot[l0]) for k, coroot in covers[ukey[1] - 1])
        else:
            row = expand_pair(table, SchubertClass(*ukey), cls).items()
        for t, av in row:
            s = out.get(t, 0) + cu * av
            if s:
                out[t] = s
            elif t in out:
                del out[t]
    return out


def expand_class_monomial(table: CosetTable, classes):
    """Expansion vector of a product of classes, as a new dict.

    Every factor is checked and identity factors are dropped.  The sorted
    classes fold from the right and stop at the first zero product.
    Nothing is cached: a caller that expands many related monomials keeps
    its own products, as `cohomology.GeneratorSet` does.
    """
    keys = sorted(c.key() if isinstance(c, SchubertClass) else tuple(c) for c in classes)
    for key in keys:
        table.element(*key)  # validates membership
    classes = [SchubertClass(*key) for key in keys if key[0] != 0]
    vec = {classes.pop().key(): 1} if classes else {(0, 1): 1}
    for cls in reversed(classes):
        vec = multiply_vec_by_class(table, vec, cls)
        if not vec:
            break
    return vec
