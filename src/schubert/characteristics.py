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
beta^vee.  The pairs (w, beta^vee) of each class u ("cover data") come
from one walk along each target's word and are stored per source u, so a
product by omega_l reads only the rows of the vector's own classes.  Any
other factor goes through `expand_pair`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from types import MappingProxyType

from .weyl import (
    CosetTable,
    _identity_rows,
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

    def is_zero(self) -> bool:
        return not self.coeffs

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


def _cover_data(table: CosetTable, r: int):
    """Per class u of level r - 1: the pairs (k, beta^vee) with (r, k) = u * s_beta.

    Rows are in increasing k.  They are filled by one walk along the word
    (i_1..i_m) of each target w of level r: dropping position p leaves
    u = s_{i_1}...s_{i_{p-1}} s_{i_{p+1}}...s_{i_m}, and w = u * s_beta for
    the root beta = s_{i_m}...s_{i_{p+1}}(alpha_{i_p}).  By Chevalley's
    formula the coefficient of s_w in omega_l * s_u is the
    alpha_l^vee-coordinate of beta^vee.  A drop that is not a class of
    level r - 1 is skipped; a dropped word that is not reduced can still
    give a shorter class, as 2,2,1 gives s_1 in B3.  The walk from the
    right end of the word carries the images of the simple roots and of
    the simple coroots under s_{i_m}...s_{i_{p+1}}, which gives beta and
    beta^vee.  Classes are keyed by the packed root matrix of their
    inverse, and u^{-1} = s_beta * w^{-1}, so the key of u has rows
    u^{-1}(alpha_k) = w^{-1}(alpha_k) - <w^{-1}(alpha_k), beta^vee> * beta,
    formed on packed ints since the packing is linear.  Both walks carry
    packed vectors: the images of the simple coroots are roots of the dual
    system, whose coordinates obey the same bound.  The coroot pairings of
    w^{-1}'s rows are read once per target from its decoded rows, and each
    beta^vee is decoded once.
    """
    key = ("cover", r)
    cached = table._cache.get(key)
    if cached is not None:
        return cached
    lt = table.lie_type
    c = cartan_matrix(lt)
    pairs = reflection_pairs(lt)
    n = lt.rank
    # s_j acts on coroot coordinates through the transposed Cartan matrix
    copairs = tuple(
        tuple((k, c[j][k]) for k in range(n) if c[j][k]) for j in range(n)
    )
    columns = tuple(zip(*c))
    identity = _identity_rows(n)
    covers = [[] for _ in range(table.beta(r - 1))]
    for k, w in enumerate(table.level(r), start=1):
        letters = w.word
        inv = w.inv_root_rows
        # row k: <w^{-1}(alpha_k), alpha_l^vee> for each l
        pairings = []
        for row in inv:
            coords = unpack_root(row, n)
            pairings.append(tuple(sum(map(mul, coords, col)) for col in columns))
        roots = coroot_images = identity
        for p in range(r - 1, -1, -1):
            j0 = letters[p] - 1
            beta = roots[j0]
            coroot = unpack_root(coroot_images[j0], n)
            rows = tuple(
                row - sum(map(mul, pairing, coroot)) * beta
                for row, pairing in zip(inv, pairings)
            )
            u = table.index_of_inv_root_rows(rows, r - 1)
            if u is not None:
                covers[u[1] - 1].append((k, coroot))
            roots = right_multiply_rows(roots, j0, pairs)
            coroot_images = right_multiply_rows(coroot_images, j0, copairs)
    table._cache[key] = covers = tuple(map(tuple, covers))
    return covers


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
    """Product of a degree-homogeneous vector with one class, as a vector."""
    if not vec:
        return {}
    r_in = next(iter(vec))[0]
    r_target = r_in + cls.r
    if r_target > table.lmax:
        if table.complete:
            return {}
        raise ValueError(f"degree {r_target} exceeds the truncated table")
    if cls.r <= 1 or r_in == 0:  # validates membership; expand_pair checks the others
        table.element(cls.r, cls.i)
        for ukey in vec:
            table.element(*ukey)
    if cls.r == 0:
        return dict(vec)
    if r_in == 0:  # c times the identity
        return {cls.key(): c for c in vec.values() if c}
    if cls.r == 1:
        l0 = table.element(1, cls.i).word[0] - 1
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
