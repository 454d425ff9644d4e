"""Cohomology-ring presentations of flag manifolds from Schubert expansions.

The integral cohomology of a flag manifold G/P is a free abelian group on
Schubert classes, graded by word length.  Everything here reduces ring
questions to exact integer linear algebra on that basis:

* `structure_matrix` expands every monomial of a graded degree in a chosen
  set of generating classes; its rows index monomials (descending lex),
  its columns index Schubert classes of that degree.
* `minimal_generators` walks the degrees, keeping the classes needed to
  span each degree on top of products of earlier generators.
* `relation_kernel` splits the monomials of a degree into the kernel of
  the evaluation map and a complement, from one Hermite form;
  `minimal_relations` filters the kernels down to fresh ideal generators
  per degree.
* `giambelli` inverts the evaluation map over Z, writing each Schubert
  class as a polynomial in the generators: the complement rows of
  `relation_kernel`, from the same Hermite form, with no Smith form.
* `gysin_analysis` computes the cohomology groups of the circle bundle
  G/P^s -> G/P from cup-by-omega matrices: even groups are cokernels,
  odd groups are kernels.
* `weyl_orbit_invariants` produces invariant polynomials as elementary
  symmetric functions of a reflection-group orbit of a weight.
* `assemble_full_flag` merges a fiber presentation P/T with a base G/P
  along invariant/Giambelli glue into a presentation of G/T.

Polynomial degrees throughout are half the cohomological degree (the
class of a length-r Weyl element sits in cohomological degree 2r).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import add
from types import MappingProxyType

from .cartan import LieType, reflect_weight
from .characteristics import (
    SchubertClass,
    multiply_vec_by_generator,
    omega_block,
)
from .intlinalg import (
    AbelianGroupStructure,
    SparseIntLattice,
    _cokernel_of_hermite,
    _mat_mul,
    cokernel_structure,
    diagonalize_with_unit_minor,
    hermite_with_transform,
    smith_with_transforms,
    solve_left,
    unimodular_inverse,
)
from .intpoly import IntPolynomial, PolyRing, monomial_exponents
from .weyl import CosetTable, enumerate_cosets

ORBIT_LIMIT = 1_000_000

_NAME_SPLIT = re.compile(r"([a-zA-Z]+)(\d+)$")


def _name_sort_key(name: str, half_degree: int):
    m = _NAME_SPLIT.match(name)
    if m:
        return (half_degree, m.group(1), int(m.group(2)))
    return (half_degree, name, -1)


@dataclass(frozen=True)
class Generator:
    """A named polynomial generator backed by a Schubert class.

    `word` is a reduced word of the indexing Weyl element, so the class can
    be resolved in any coset table containing it.  The cohomological degree
    `degree` is twice its length, `half_degree` its length.
    """

    name: str
    word: tuple[int, ...]

    @property
    def degree(self) -> int:
        return 2 * len(self.word)

    @property
    def half_degree(self) -> int:
        return len(self.word)


def _ring_of(generators) -> PolyRing:
    return PolyRing(tuple(g.name for g in generators), tuple(g.half_degree for g in generators))


class GeneratorSet:
    """An ordered set of generators bound to classes of one coset table.

    Each word resolves through ``CosetTable.class_of_word``; a word that is
    not reduced or names no class of the table raises ValueError naming the
    generator, and repeated names raise in ``PolyRing``.  Each monomial it
    expands is memoized read-only on the set, not on the table, so the memo
    goes with the set.
    """

    def __init__(self, table: CosetTable, generators):
        self.table = table
        gens = sorted(generators, key=lambda g: _name_sort_key(g.name, g.half_degree))
        self.generators = tuple(gens)
        self.ring = _ring_of(gens)
        self._classes = {}
        for g in gens:
            try:
                self._classes[g.name] = SchubertClass(*table.class_of_word(g.word))
            except (KeyError, ValueError) as exc:
                raise ValueError(f"generator {g.name}: {exc.args[0]}") from None
        self._products = {(0,) * len(gens): MappingProxyType({(0, 1): 1})}

    def expand_exponents(self, exponents):
        """Schubert expansion vector of the monomial with these exponents.

        A monomial is its first generator times the monomial with one fewer
        of that generator, so each new monomial costs one product by a class
        (``characteristics.multiply_vec_by_generator``): Chevalley's formula
        for a degree-1 generator, otherwise pair products or the rows of the
        generator's products with the whole level, cached on the table,
        whichever still runs the operator fewer times.
        """
        exponents = tuple(exponents)
        if len(exponents) != len(self.generators) or min(exponents, default=0) < 0:
            raise ValueError(f"bad exponents {exponents} for {len(self.generators)} generators")
        missing = []
        while exponents not in self._products:
            k = next(k for k, e in enumerate(exponents) if e)
            missing.append((exponents, self._classes[self.generators[k].name]))
            exponents = exponents[:k] + (exponents[k] - 1,) + exponents[k + 1:]
        vec = self._products[exponents]
        for exponents, cls in reversed(missing):
            vec = MappingProxyType(multiply_vec_by_generator(self.table, vec, cls))
            self._products[exponents] = vec
        return vec

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


@dataclass
class StructureMatrixBundle:
    """Monomial-by-class expansion matrix in one polynomial degree."""

    m: int
    exponents: list  # row labels: exponent tuples, descending lex
    matrix: list  # b(2m) x beta(m) integer rows


def structure_matrix(table: CosetTable, gens: GeneratorSet, m: int) -> StructureMatrixBundle:
    """Expand every degree-m monomial in the generators over level m."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    exps = monomial_exponents(gens.ring, m)
    beta = table.beta(m)
    rows = []
    for e in exps:
        vec = gens.expand_exponents(e)
        rows.append([vec.get((m, j), 0) for j in range(1, beta + 1)])
    return StructureMatrixBundle(m, exps, rows)


def _covers_everything(lat: SparseIntLattice, beta: int) -> bool:
    if lat.rank != beta:
        return False
    return all(row[p] == 1 for p, row in lat.pivots.items())


def minimal_generators(table: CosetTable, up_to=None) -> GeneratorSet:
    """Select a minimal set of Schubert classes generating the ring.

    Degree by degree, the monomials in the previously chosen generators
    (each a product of at least two, as every generator has lower degree)
    span a sublattice of the degree's classes (their structure matrix);
    whenever that sublattice is proper, the smallest set of classes
    completing it is added (ties broken by lowest class index).  Weight
    classes are named w<letter>, higher generators y<degree>.  The set
    returned keeps its monomials from the degrees since its last addition.
    """
    if up_to is None:
        if not table.complete:
            raise ValueError("a truncated table needs an explicit degree bound")
        up_to = table.lmax
    chosen: list[Generator] = []
    probe = GeneratorSet(table, chosen)
    for m in range(1, min(up_to, table.lmax) + 1):  # no classes above lmax
        beta = table.beta(m)
        if beta == 0:
            continue
        lat = SparseIntLattice()
        for row in structure_matrix(table, probe, m).matrix:
            lat.add(dict(enumerate(row, start=1)))
        if _covers_everything(lat, beta):
            continue
        need_at_least = max(1, beta - lat.rank)
        found = None
        for size in range(need_at_least, beta + 1):
            for combo in itertools.combinations(range(1, beta + 1), size):
                trial = lat.copy()
                for j in combo:
                    trial.add({j: 1})
                if _covers_everything(trial, beta):
                    found = combo
                    break
            if found:
                break
        if found is None:  # adding every class always completes
            raise RuntimeError(f"no generator set completes degree {m}")
        taken = {g.name for g in chosen}
        for j in found:
            word = table.element(m, j).word
            name = f"w{word[0]}" if m == 1 else f"y{m}"
            while name in taken:
                name += "x"
            taken.add(name)
            chosen.append(Generator(name, word))
        probe = GeneratorSet(table, chosen)
    return probe


@dataclass
class RelationKernel:
    """One degree's structure matrix M, split by one Hermite form H = U * M.

    `kernel` is a basis of the kernel lattice K of monomial evaluation, as
    polynomials: the rows of U facing zero rows of H.  `complement` holds
    the rows of U facing H's identity rows, as integer rows over
    `bundle.exponents`: complement * M = I, and Z^b = K + span(complement)
    is a direct sum (b the number of monomials).
    """

    bundle: StructureMatrixBundle
    kernel: list
    complement: list


def relation_kernel(table: CosetTable, gens: GeneratorSet, m: int) -> RelationKernel:
    """The degree-m kernel of monomial evaluation and its complement.

    One structure matrix M and one Hermite form H = U * M give every
    answer (`diagonalize_with_unit_minor`).  The generators span degree m
    over Z exactly when H is the beta x beta identity over zero rows;
    raises otherwise (the kernel of a non-surjective map would not capture
    all relations).  The first beta rows of U are the complement and the
    rest the kernel basis.  A degree without monomials is checked as one
    zero row of width beta, which adds nothing to the kernel.
    """
    bundle = structure_matrix(table, gens, m)
    beta = table.beta(m)
    matrix = bundle.matrix or [[0] * beta]
    try:
        u = diagonalize_with_unit_minor(matrix).P
    except ValueError:
        coker = cokernel_structure(matrix)
        raise ValueError(f"generators do not span degree {m}: cokernel {coker}") from None
    kernel = [
        IntPolynomial(gens.ring, {e: c for e, c in zip(bundle.exponents, row) if c})
        for row in u[beta:len(bundle.matrix)]
    ]
    return RelationKernel(bundle, kernel, u[:beta])


def graded_ideal_span(ring: PolyRing, relations, m: int) -> SparseIntLattice:
    """Lattice spanned in degree m by all monomial multiples of relations."""
    lat = SparseIntLattice()
    for rel in relations:
        rel = rel.rename_into(ring) if rel.ring is not ring else rel
        d = rel.degree()
        if d is None or d > m:
            continue
        terms = rel.terms.items()
        for e in monomial_exponents(ring, m - d):
            # the multiple by x^e: every exponent shifted by e
            lat.add({tuple(map(add, e, k)): c for k, c in terms})
    return lat


@dataclass(frozen=True)
class Presentation:
    """Generators and relations for a graded ring Z[gens]/<relations>."""

    generators: tuple
    relations: tuple

    @property
    def ring(self) -> PolyRing:
        return _ring_of(self.generators)

    def relation_degrees(self) -> tuple[int, ...]:
        return tuple(r.degree() for r in self.relations)

    def words(self) -> dict:
        return {g.name: g.word for g in self.generators}

    def text(self) -> str:
        names = ", ".join(g.name for g in self.generators)
        lines = [f"Z[{names}] modulo {len(self.relations)} relations:"]
        for r in self.relations:
            lines.append(f"  [{r.degree()}]  {r} = 0")
        return "\n".join(lines)

    def __str__(self):
        return self.text()


def _fresh_generators(basis, inside):
    """Rows extending span(inside) to span(basis), of minimal count.

    Both arguments are integer row matrices with `inside` contained in the
    integer row span of `basis` (whose rows must be a lattice basis).
    Writing each inside-row in basis coordinates gives a matrix A; Smith
    P*A*Q = D identifies the quotient with a direct sum of Z/d_i, and the
    rows of Q^-1 * basis at positions with d_i != 1 generate it with the
    fewest possible elements.  Filtering basis rows one at a time instead
    is order-dependent and can keep redundant rows, so the quotient
    structure is computed exactly.
    """
    if not basis:
        return []
    if not inside:
        return [list(row) for row in basis]
    _, diag, q = smith_with_transforms(solve_left(basis, inside))
    qinv = unimodular_inverse(q)
    fresh = [row for i, row in enumerate(qinv) if i >= len(diag) or diag[i][i] != 1]
    return _mat_mul(fresh, basis)


def _fills_kernel(span: SparseIntLattice, split: RelationKernel) -> bool:
    """Whether a sublattice S of the kernel K of one degree is all of K.

    With Z^b = K + C a direct sum (C spanned by the complement rows),
    S + C = Z^b holds exactly when S = K: each k in K is then s + c with
    c = k - s in K and C, so c = 0.  And S + C is Z^b exactly when its
    echelon rows are b unit pivots.  S must lie inside K.
    """
    if span.rank != len(split.kernel):
        return False
    exps = split.bundle.exponents
    trial = span.copy()
    for row in split.complement:
        trial.add({e: c for e, c in zip(exps, row) if c})
    return _covers_everything(trial, len(exps))


def minimal_relations(table: CosetTable, gens: GeneratorSet, up_to: int) -> Presentation:
    """Smallest relation set generating the kernel ideal degree by degree.

    Each degree builds one structure matrix and one Hermite form of it
    (`relation_kernel`), which give the kernel lattice K and a complement
    C with Z^b = K + C.  The sublattice S spanned by monomial multiples
    of relations already kept must map to zero through that matrix (S
    inside K); otherwise ValueError is raised.  When S has the rank of K
    and S plus the rows of C is all of Z^b, then S = K and the degree adds
    nothing, with no Smith form (see _fills_kernel).  Only the other
    degrees append a minimal generating set of K/S (see
    _fresh_generators).

    On a complete table the sweep stops at lmax + g, g the largest
    generator level: in a higher degree m each monomial mu is x * (mu / x)
    for a generator x dividing it, and mu / x has degree above lmax, where
    every monomial already lies in the ideal.  So no higher degree adds a
    relation.
    """
    kept = []
    ring = gens.ring
    if table.complete:
        up_to = min(up_to, table.lmax + max(ring.degrees, default=0))
    for m in range(1, up_to + 1):
        split = relation_kernel(table, gens, m)
        if not split.kernel:
            continue
        span = graded_ideal_span(ring, kept, m)
        exps = split.bundle.exponents
        rows = [[row.get(e, 0) for e in exps] for row in span.pivots.values()]
        if any(map(any, _mat_mul(rows, split.bundle.matrix))):
            raise ValueError(f"a multiple of a kept relation does not vanish in degree {m}")
        if _fills_kernel(span, split):
            continue
        basis = [[p.terms.get(e, 0) for e in exps] for p in split.kernel]
        inside = [
            [dict(row).get(e, 0) for e in exps] for row in span.canonical_basis()
        ]
        for row in _fresh_generators(basis, inside):
            terms = {e: c for e, c in zip(exps, row) if c}
            kept.append(IntPolynomial(ring, terms))
    return Presentation(gens.generators, tuple(kept))


def giambelli(table: CosetTable, gens: GeneratorSet, m: int):
    """Polynomials in the generators mapping to each class of level m.

    They are the complement rows of `relation_kernel`: the rows of the
    Hermite transform U facing the identity rows of H = U * M, for M the
    structure matrix, so row j of them times M is the j-th unit class
    vector.  Any other preimage differs from it by a relation of the
    degree.  A complete table has no classes above its top level, so those
    degrees give no polynomials without building their monomials.
    """
    if table.complete and m > table.lmax:
        return []
    split = relation_kernel(table, gens, m)
    return [
        IntPolynomial(gens.ring, {e: c for e, c in zip(split.bundle.exponents, row) if c})
        for row in split.complement
    ]


# -- circle-bundle (Gysin) analysis -------------------------------------------


@dataclass
class GysinTable:
    """Cohomology groups of the circle bundle over G/P for K = {i}.

    `even[2r]` is the cokernel of cup-with-omega into level r; `odd[2r-1]`
    is free on the kernel of the same matrix, with basis vectors (over the
    level r-1 Schubert basis) in `odd_kernels[2r-1]`.
    """

    lie_type: LieType
    i: int
    up_to: int
    even: dict
    odd: dict
    odd_kernels: dict
    matrices: dict

    def group(self, k: int) -> AbelianGroupStructure:
        """Group in cohomological degree k (trivial when absent)."""
        if k == 0:
            return AbelianGroupStructure(1)
        table = self.even if k % 2 == 0 else self.odd
        return table.get(k, AbelianGroupStructure(0))


def gysin_analysis(table: CosetTable, i: int, up_to: int) -> GysinTable:
    """Groups of G/P^s from the cup-with-omega matrices A_r on G/P.

    Row u of A_r is omega * s_(r-1,u) by Chevalley's formula, read straight
    off the cover data of level r (``characteristics.omega_block``, omega
    being the one class of level 1 here); A_1 is the identity's row [1].
    A truncated table raises ValueError when up_to reaches above it.

    Each A_r is factored once, as U * A_r = H in row Hermite form.  The odd
    group is free on the kernel, the rows of U facing zero rows of H, as in
    `kernel_basis`.  The even group is the cokernel of A_r, read off H,
    which has the same row span: entries above a pivot p are reduced into
    [0, p), so above a unit pivot they are 0, and each unit pivot with its
    row and column splits off as Z/1.  Only the rows with a pivot other
    than 1, on the columns that are not unit pivots, go through a Smith
    form (see `intlinalg._cokernel_of_hermite`).
    """
    if set(table.K) != {i}:
        raise ValueError(f"table was built for K={sorted(table.K)}, expected K={{{i}}}")
    top = min(up_to, table.lmax + 1)
    if top > table.lmax and not table.complete:
        raise ValueError(f"degree {top} exceeds the truncated table")
    even, odd, kernels, mats = {}, {}, {}, {}
    for r in range(1, top + 1):
        beta_cur = table.beta(r)
        if r > table.lmax:
            rows = [[] for _ in range(table.beta(r - 1))]
        else:
            rows = omega_block(table, r)
        mats[r] = rows
        h, u = hermite_with_transform(rows)
        even[2 * r] = _cokernel_of_hermite(h, beta_cur)
        kern = [list(u[k]) for k, row in enumerate(h) if not any(row)]
        odd[2 * r - 1] = AbelianGroupStructure(len(kern))
        kernels[2 * r - 1] = kern
    return GysinTable(table.lie_type, i, up_to, even, odd, kernels, mats)


# -- Weyl-orbit invariants ----------------------------------------------------


def weight_ring(rank: int) -> PolyRing:
    return PolyRing(tuple(f"w{i}" for i in range(1, rank + 1)), (1,) * rank)


def weight_polynomial(ring: PolyRing, vec) -> IntPolynomial:
    """The linear polynomial sum(vec[i] * w_{i+1})."""
    terms = {}
    for i, c in enumerate(vec):
        if c:
            e = [0] * ring.nvars
            e[i] = 1
            terms[tuple(e)] = c
    return IntPolynomial(ring, terms)


def weight_orbit(lie_type: LieType, K, seed: int):
    """Orbit of a fundamental weight under the reflections outside K.

    Breadth-first closure; within a level the reflections are applied in
    ascending index, so the output order is deterministic.  An orbit of
    more than ``ORBIT_LIMIT`` weights (read at call time) raises ValueError.
    """
    n = lie_type.rank
    if not 1 <= seed <= n:
        raise ValueError(f"seed index {seed} out of range 1..{n}")
    moving = [j for j in range(1, n + 1) if j not in set(K)]
    start = tuple(int(t == seed) for t in range(1, n + 1))
    orbit = [start]
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for v in frontier:
            for j in moving:
                w = reflect_weight(lie_type, j, v)
                if w not in seen:
                    seen.add(w)
                    orbit.append(w)
                    fresh.append(w)
            if len(orbit) > ORBIT_LIMIT:
                raise ValueError(f"orbit size exceeds limit {ORBIT_LIMIT}")
        frontier = fresh
    return orbit


def elementary_symmetric(ring: PolyRing, forms):
    """[e_1, ..., e_N] of the given linear forms (weight vectors)."""
    es = [ring.one()]
    for f in forms:
        fp = weight_polynomial(ring, f) if not isinstance(f, IntPolynomial) else f
        es.append(ring.zero())
        for r in range(len(es) - 1, 0, -1):
            es[r] = es[r] + fp * es[r - 1]
    return es[1:]


def weyl_orbit_invariants(lie_type: LieType, K, seed: int):
    """e_r of the weight orbit, r = 1..orbit size, in the weight ring."""
    orbit = weight_orbit(lie_type, K, seed)
    return elementary_symmetric(weight_ring(lie_type.rank), orbit)


# -- expansion of polynomials over a table ------------------------------------


def expand_polynomial(table: CosetTable, poly: IntPolynomial, words) -> dict:
    """Schubert expansion {(r, i): coeff} of a polynomial in named classes.

    `words` maps each variable that occurs to a word of length its degree in
    ``poly.ring``; a variable without a word, or with a word of another
    length, raises ValueError.  The words are bound as a `GeneratorSet`,
    which raises ValueError for a word that is not reduced or names no
    class of the table.
    """
    ring = poly.ring
    used = []
    for k, name in enumerate(ring.names):
        if not any(e[k] for e in poly.terms):
            continue
        if name not in words:
            raise ValueError(f"variable {name} has no word")
        word = tuple(words[name])
        if len(word) != ring.degrees[k]:
            raise ValueError(f"variable {name} of degree {ring.degrees[k]}: "
                             f"word {list(word)} has length {len(word)}")
        used.append(Generator(name, word))
    gens = GeneratorSet(table, used)
    out = {}
    for exps, coeff in poly.rename_into(gens.ring).terms.items():
        for key, c in gens.expand_exponents(exps).items():
            out[key] = out.get(key, 0) + coeff * c
    return {key: c for key, c in out.items() if c}


def restrict_to_parabolic(full_table: CosetTable, sub_table: CosetTable, vec) -> dict:
    """Rewrite an expansion over a finer table on a coarser one.

    Every class in the support must be a minimal coset representative of
    the coarser table (true for any class pulled back from it).
    """
    if full_table.lie_type != sub_table.lie_type:
        raise ValueError("tables belong to different Lie types")
    out = {}
    for (r, i), c in vec.items():
        w = full_table.element(r, i)
        key = sub_table.index_of_inv_root_rows(w.inv_root_rows, r)
        if key is None:
            raise ValueError(f"class ({r},{i}) is not a class of the coarser table")
        out[key] = c
    return out


def invariant_on_parabolic(sub_table: CosetTable, poly: IntPolynomial) -> dict:
    """Expansion over a G/P table of an invariant weight polynomial.

    The polynomial (in w1..wn) is expanded on a truncated full-flag table
    and restricted; invariance guarantees the support lies over G/P.
    """
    d = poly.degree()
    if d is None:
        return {}
    lt = sub_table.lie_type
    full = enumerate_cosets(lt, range(1, lt.rank + 1), max_length=d)
    words = {f"w{i}": (i,) for i in range(1, lt.rank + 1)}
    vec = expand_polynomial(full, poly, words)
    return restrict_to_parabolic(full, sub_table, vec)


def rewrite_in_generators(table: CosetTable, gens: GeneratorSet, vec) -> IntPolynomial:
    """A generator polynomial expanding to the given homogeneous vector."""
    if not vec:
        return gens.ring.zero()
    degrees = {r for (r, _) in vec}
    if len(degrees) != 1:
        raise ValueError("vector is not homogeneous")
    (m,) = degrees
    polys = giambelli(table, gens, m)
    out = gens.ring.zero()
    for (_, j), c in sorted(vec.items()):
        out = out + c * polys[j - 1]
    return out


# -- fibration assembly --------------------------------------------------------


def _bare_unit_variable(ring: PolyRing, poly: IntPolynomial):
    """A (name, coeff) pair for a term +-1 * v with v a higher generator."""
    best = None
    for exps, coeff in poly.terms.items():
        if coeff in (1, -1) and sum(exps) == 1:
            idx = next(i for i, e in enumerate(exps) if e)
            if ring.degrees[idx] > 1:
                cand = (ring.degrees[idx], ring.names[idx], coeff)
                if best is None or cand[:2] > best[:2]:
                    best = cand
    if best is None:
        return None
    return best[1], best[2]


def assemble_full_flag(fiber: Presentation, base: Presentation, glue) -> Presentation:
    """Presentation of G/T from a fiber P/T, a base G/P, and glue pairs.

    Each glue pair (c, g) yields the relation c - g; killing the base
    generators in it must reproduce a fiber relation (checked).  Two
    simplification passes follow: generators carrying a bare unit
    coefficient in some relation are eliminated by substitution, and each
    remaining relation is reduced modulo monomial multiples of the
    lower-degree ones, dropping it when redundant.
    """
    if not fiber.generators:
        return base
    generators = list(fiber.generators) + list(base.generators)
    names = [g.name for g in generators]
    if len(set(names)) != len(names):
        raise ValueError("fiber and base generator names overlap")
    generators.sort(key=lambda g: _name_sort_key(g.name, g.half_degree))
    ring = _ring_of(generators)
    base_names = {g.name for g in base.generators}
    kill_base = {name: 0 for name in base_names}
    fiber_pending = [h.rename_into(ring) for h in fiber.relations]
    rhos = []
    for c_poly, g_poly in glue:
        rho = c_poly.rename_into(ring) - g_poly.rename_into(ring)
        restricted = rho.substitute(kill_base, ring)
        matched = next((h for h in fiber_pending if h == restricted), None)
        if matched is None:
            raise ValueError(
                f"glue pair of degree {c_poly.degree()} does not restrict "
                "to a fiber relation"
            )
        fiber_pending.remove(matched)
        rhos.append(rho)
    if fiber_pending:
        missing = sorted(h.degree() for h in fiber_pending)
        raise ValueError(f"fiber relations of degree {missing} not covered by glue")

    relations = rhos + [r.rename_into(ring) for r in base.relations]
    relations.sort(key=lambda p: (p.degree(), str(p)))

    # pass 1: eliminate generators that some relation solves with a unit
    while True:
        hit = None
        for rel in relations:
            found = _bare_unit_variable(ring, rel)
            if found:
                hit = (rel, *found)
                break
        if hit is None:
            break
        rel, name, coeff = hit
        solved = (rel - coeff * ring.variable(name)) * (-coeff)
        generators = [g for g in generators if g.name != name]
        ring = _ring_of(generators)
        mapping = {name: solved.rename_into(ring)}
        relations = [
            r.substitute(mapping, ring) for r in relations if r is not rel
        ]

    # pass 2: reduce each relation modulo the lower ones, drop redundant
    relations.sort(key=lambda p: (p.degree(), str(p)))
    kept = []
    for rel in relations:
        if rel.is_zero():
            continue
        lat = graded_ideal_span(ring, kept, rel.degree())
        residue = lat.reduce(rel.terms)
        if residue:
            kept.append(IntPolynomial(ring, residue))
    return Presentation(tuple(generators), tuple(kept))
