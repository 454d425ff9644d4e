"""Tests for Schubert structure constants and product expansion."""

import functools
import itertools
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from schubert.cartan import LieType
from schubert.weyl import CosetTable, WeylElement, enumerate_cosets, opposition_involution
from schubert.cohomology import (
    expand_polynomial,
    gysin_analysis,
    minimal_generators,
    minimal_relations,
)
from schubert.intpoly import monomial_exponents
from schubert.triangular import cartan_matrix_of_word, evaluate_exponents
import schubert.characteristics as characteristics
from schubert.characteristics import (
    SchubertClass,
    _cover_data,
    _dual,
    characteristic,
    expand_class_monomial,
    expand_pair,
    expand_product,
    multiply_vec_by_class,
)

from along_word import characteristic_with_word, subwords_equal_to
from brute_weyl import (
    ascending_subword_solutions,
    brute_all_reduced_words,
    brute_length,
    brute_matrix,
    weight_matrix,
)
from presentation_data import E6_WORDS
from lr_oracle import lr_coefficient, schur_product_in_box

A2 = LieType.parse("A2")
A3 = LieType.parse("A3")
B3 = LieType.parse("B3")
C3 = LieType.parse("C3")
D4 = LieType.parse("D4")
G2 = LieType.parse("G2")
F4 = LieType.parse("F4")
E6 = LieType.parse("E6")


# ------------------------------------------------------------- subwords


def test_subwords_identity_target():
    e = WeylElement.identity(A2)
    assert subwords_equal_to((1, 2, 1), e) == [()]
    assert subwords_equal_to((), e) == [()]


def test_subwords_single_reflection():
    s1 = WeylElement.from_word(A2, (1,))
    assert subwords_equal_to((1, 2, 1), s1) == [(1,), (3,)]
    s2 = WeylElement.from_word(A2, (2,))
    assert subwords_equal_to((1, 2, 1), s2) == [(2,)]


def test_subwords_full_word():
    w = WeylElement.from_word(F4, (3, 2, 1))
    assert subwords_equal_to((3, 2, 1), w) == [(1, 2, 3)]


def test_subwords_longer():
    # in (1,2,1), the element sigma_1 sigma_2 appears once as positions (1,2)
    u = WeylElement.from_word(A2, (1, 2))
    assert subwords_equal_to((1, 2, 1), u) == [(1, 2)]
    v = WeylElement.from_word(A2, (2, 1))
    assert subwords_equal_to((1, 2, 1), v) == [(2, 3)]


def test_subword_search_matches_oracle(f4_p1, b3_full, e6_p2):
    # the walk down from u against the walk up from the identity: every
    # (target, class) pair on F4/P1 and B3/T, the generators on E6/P2
    def elements(table):
        return [w for _, _, w in table]

    e6_classes = [e6_p2.element(*e6_p2.class_of_word(w)) for w in E6_WORDS.values()]
    found = 0
    for table, classes in [
        (f4_p1, elements(f4_p1)), (b3_full, elements(b3_full)), (e6_p2, e6_classes),
    ]:
        lt = table.lie_type
        for w in elements(table):
            for u in classes:
                if len(u.word) > len(w.word):
                    continue
                sols = characteristics._subword_solutions(
                    lt, w.word, u.inv_root_rows, len(u.word)
                )
                assert sols == ascending_subword_solutions(lt, w.word, u), (lt, w, u)
                found += len(sols)
    assert found > 0


@given(lt=st.sampled_from([A3, B3, C3, G2, D4]), data=st.data())
@settings(max_examples=100, deadline=None)
def test_subwords_match_brute_enumeration(lt, data):
    # any word, reduced or not, and any u no longer than it
    n = lt.rank
    word = tuple(data.draw(st.lists(st.integers(1, n), max_size=8)))
    if data.draw(st.booleans()):
        u_word = tuple(a for a in word if data.draw(st.booleans()))
    else:
        u_word = tuple(data.draw(st.lists(st.integers(1, n), max_size=len(word))))
    u = WeylElement.from_word(lt, u_word)
    k = brute_length(lt, u_word)
    target = brute_matrix(lt, u_word)
    expected = []
    for subset in itertools.combinations(range(len(word)), k):
        sub = [word[p] for p in subset]
        if brute_matrix(lt, sub) == target and brute_length(lt, sub) == len(subset):
            expected.append(tuple(p + 1 for p in subset))
    assert subwords_equal_to(word, u) == expected


# ------------------------------------------------------------- characteristic


def test_characteristic_f4_worked_value(f4_p1):
    w1 = SchubertClass(1, 1)
    y3 = SchubertClass(3, 1)
    assert f4_p1.element(3, 1).word == (3, 2, 1)
    assert characteristic(f4_p1, y3, [w1, w1, w1]) == 2


def test_characteristic_single_factor_is_delta(f4_p1):
    a = SchubertClass(4, 1)
    b = SchubertClass(4, 2)
    assert characteristic(f4_p1, a, [a]) == 1
    assert characteristic(f4_p1, a, [b]) == 0
    with pytest.raises(KeyError):
        characteristic(f4_p1, a, [SchubertClass(4, 99)])


def test_characteristic_degree_mismatch(f4_p1):
    with pytest.raises(ValueError, match="degree mismatch"):
        characteristic(f4_p1, SchubertClass(2, 1), [SchubertClass(1, 1)])


def test_characteristic_with_identity_factor(f4_p1):
    e = SchubertClass(0, 1)
    w1 = SchubertClass(1, 1)
    assert characteristic(f4_p1, SchubertClass(1, 1), [e, w1]) == 1
    assert characteristic(f4_p1, SchubertClass(0, 1), [e, e, e]) == 1


def test_characteristic_word_invariance(f4_full):
    # the value along any reduced word of the target is the same
    for letters, factors in [
        ((1, 2, 1), [SchubertClass(1, 1), SchubertClass(2, 1)]),
        ((2, 1, 2, 3), [SchubertClass(2, 1), SchubertClass(2, 2)]),
        ((1, 3, 2, 4), [SchubertClass(1, 3), SchubertClass(3, 2)]),
    ]:
        w = WeylElement.from_word(F4, letters)
        assert len(w.word) == len(letters)
        words = brute_all_reduced_words(F4, brute_matrix(F4, letters))
        assert len(words) > 1
        values = {
            characteristic_with_word(f4_full, word, factors) for word in words
        }
        assert len(values) == 1, (letters, values)


# ------------------------------------------------------------- expansion


def test_pieri_on_projective_grassmannian(a3_full):
    table = enumerate_cosets(A3, {2})
    s1 = SchubertClass(1, 1)
    exp = expand_product(table, [s1, s1])
    assert exp.degree == 2
    assert sorted(v for v in exp.coeffs.values()) == [1, 1]
    assert len(exp.coeffs) == table.beta(2) == 2


def test_expansion_beyond_dimension_is_zero(f4_p1):
    top = SchubertClass(15, 1)
    assert not expand_product(f4_p1, [top, top]).coeffs


def test_expansion_on_truncated_table_errors():
    part = enumerate_cosets(F4, {1, 2, 3, 4}, max_length=3)
    with pytest.raises(ValueError, match="truncated"):
        expand_product(part, [SchubertClass(2, 1), SchubertClass(2, 1)])


def test_expand_identity_and_empty(f4_p1):
    e = SchubertClass(0, 1)
    exp = expand_product(f4_p1, [e])
    assert exp.coeffs == {e: 1}
    assert expand_product(f4_p1, []).coeffs == {e: 1}
    w1 = SchubertClass(1, 1)
    exp2 = expand_product(f4_p1, [e, w1])
    assert exp2.coeffs == {w1: 1}


def _extra_tables(f4_p1):
    """G2/T, C3/T, D4/T and F4/P1: the further types of the product checks."""
    full = [LieType.parse(name) for name in ("G2", "C3", "D4")]
    return [enumerate_cosets(lt, range(1, lt.rank + 1)) for lt in full] + [f4_p1]


def test_expand_commutative(f4_p1):
    u, v = SchubertClass(3, 1), SchubertClass(4, 2)
    assert expand_product(f4_p1, [u, v]).coeffs == expand_product(f4_p1, [v, u]).coeffs
    rng = random.Random(3)
    for table in _extra_tables(f4_p1):
        for _ in range(6):
            r = rng.randint(1, table.lmax // 2)
            s = rng.randint(1, table.lmax - r)
            u = SchubertClass(r, rng.randint(1, table.beta(r)))
            v = SchubertClass(s, rng.randint(1, table.beta(s)))
            uv = expand_product(table, [u, v]).coeffs
            assert uv == expand_product(table, [v, u]).coeffs, (table.lie_type, u, v)


def test_associativity_via_vectors(b3_full, f4_p1):
    for table in [b3_full] + _extra_tables(f4_p1):
        rng = random.Random(5)
        top = min(3, table.lmax // 3)
        classes = [
            SchubertClass(r, i)
            for r in range(1, top + 1)
            for i in range(1, table.beta(r) + 1)
        ]
        for _ in range(6):
            a, b, c = rng.sample(classes, 3)
            direct = expand_product(table, [a, b, c]).coeffs
            # fold pairwise: (a*b)*c
            vec = expand_pair(table, a, b)
            folded = {}
            for ukey, cu in vec.items():
                for t, av in expand_pair(table, SchubertClass(*ukey), c).items():
                    folded[t] = folded.get(t, 0) + cu * av
            folded = {SchubertClass(*t): v for t, v in folded.items() if v}
            assert folded == direct, (table.lie_type, a, b, c)


DUALITY_TABLES = [
    ("G2", (1, 2), None),
    ("A3", (1, 2, 3), None),
    ("B3", (1, 2, 3), None),
    ("C3", (1, 2, 3), None),
    ("D4", (1, 2, 3, 4), 3),
    ("F4", (1,), 3),
]


@pytest.mark.parametrize(
    "lie, K, last",
    DUALITY_TABLES,
    ids=[f"{lie}-K{''.join(map(str, K))}" for lie, K, _ in DUALITY_TABLES],
)
def test_poincare_duality(lie, K, last):
    # the top-class coefficient pairs level r with level lmax - r by a
    # permutation matrix; `last` bounds the rows checked on larger tables
    table = enumerate_cosets(LieType.parse(lie), set(K))
    top = table.lmax
    for r in range(0, (top if last is None else last) + 1):
        n = table.beta(r)
        assert table.beta(top - r) == n
        # the single-target formula along the top word: expand_pair reads
        # these products through the dual map that this pairing defines
        pairing = [
            [
                characteristic(
                    table, SchubertClass(top, 1), [SchubertClass(r, i), SchubertClass(top - r, j)]
                )
                for j in range(1, n + 1)
            ]
            for i in range(1, n + 1)
        ]
        assert all(x in (0, 1) for row in pairing for x in row), r
        assert all(sum(row) == 1 for row in pairing), r
        assert all(sum(col) == 1 for col in zip(*pairing)), r


# ------------------------------------------------------------- Poincare duals


def _known_opposition(lie_type):
    """tau by family (Bourbaki numbering): -w0 is 1 except on A, odd D and E6."""
    n = lie_type.rank
    tau = list(range(1, n + 1))
    if lie_type.family == "A":
        tau.reverse()
    elif lie_type.family == "D" and n % 2:
        tau[n - 2], tau[n - 1] = n, n - 1
    elif lie_type.family == "E" and n == 6:
        tau = [6, 2, 5, 4, 3, 1]
    return tuple(tau)


OPPOSITION_TYPES = (
    [f"A{n}" for n in range(1, 8)] + [f"B{n}" for n in range(2, 6)]
    + [f"C{n}" for n in range(3, 6)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("lie", OPPOSITION_TYPES)
def test_opposition_involution_of_every_family(lie):
    lt = LieType.parse(lie)
    assert opposition_involution(lt) == _known_opposition(lt)


# (type, K, the last row of the top pairing checked; None: half the levels)
DUAL_TABLES = [
    ("A4", (1, 2, 3, 4), None),
    ("D5", (5,), None),
    ("E6", (1,), 7),
    ("E6", (2,), 4),
    ("B3", (1, 2, 3), None),
    ("F4", (1,), 5),
]
DUAL_IDS = [f"{lie}-K{''.join(map(str, K))}" for lie, K, _ in DUAL_TABLES]


@functools.lru_cache(maxsize=None)
def _table(lie, K):
    return enumerate_cosets(LieType.parse(lie), set(K))


@pytest.mark.parametrize("lie, K, last", DUAL_TABLES, ids=DUAL_IDS)
def test_dual_is_an_involution_onto_the_complementary_level(lie, K, last):
    table = _table(lie, K)
    top = table.lmax
    for r in range(top + 1):
        duals = _dual(table, r)
        assert len(duals) == table.beta(r)
        assert {d[0] for d in duals} == {top - r}
        assert sorted(duals) == [(top - r, j) for j in range(1, table.beta(top - r) + 1)]
        for i, (s, j) in enumerate(duals, start=1):
            assert _dual(table, s)[j - 1] == (r, i)


@pytest.mark.parametrize("lie, K, last", DUAL_TABLES, ids=DUAL_IDS)
def test_dual_matches_the_top_pairing(lie, K, last):
    # u and v pair to 1 at the top class exactly when v is the dual of u;
    # the other rows follow from the involution
    table = _table(lie, K)
    top = table.lmax
    tclass = SchubertClass(top, 1)
    for r in range((top // 2 if last is None else last) + 1):
        for i in range(1, table.beta(r) + 1):
            u = SchubertClass(r, i)
            ones = [
                (top - r, j)
                for j in range(1, table.beta(top - r) + 1)
                if characteristic(table, tclass, [u, SchubertClass(top - r, j)])
            ]
            assert ones == [_dual(table, r)[i - 1]], (lie, u)


@pytest.mark.parametrize("lie, K, last", DUAL_TABLES, ids=DUAL_IDS)
def test_dual_is_the_class_of_w0_u(lie, K, last):
    # u^vee lies in the coset w0 * u * W_P, and W_P is the stabilizer of
    # the omega_k with k in K: u^vee(omega_k) = w0(u(omega_k)), where
    # w0(omega_m) = -omega_tau(m); the weight matrices are the brute model's
    table = _table(lie, K)
    lt = table.lie_type
    tau = _known_opposition(lt)
    for r in range(table.lmax + 1):
        for u, (s, j) in zip(table.levels[r], _dual(table, r)):
            image = brute_matrix(lt, table.element(s, j).word)
            mat = weight_matrix(u)
            for k in K:
                w0u = [0] * lt.rank
                for m, c in enumerate(mat[k - 1]):
                    w0u[tau[m] - 1] = -c
                assert list(image[k - 1]) == w0u, (lie, u.word, k)


def test_dual_needs_a_complete_table_closed_under_duality():
    with pytest.raises(ValueError, match="complete"):
        _dual(enumerate_cosets(F4, {1}, max_length=5), 2)
    good = enumerate_cosets(A2, {1, 2})
    (e,), (s1, s2), level2, (w0,) = good.keys
    missing = CosetTable(A2, {1, 2}, [[e], [s1, s2], level2[:1], [w0]], True, tree=None)
    with pytest.raises(ValueError, match="no Poincare dual"):
        _dual(missing, 1)
    # s2 listed on level 2: its dual is found, but on level 2, not 1
    moved = CosetTable(A2, {1, 2}, [[e], [s1], [s2] + level2, [w0]], True, tree=None)
    with pytest.raises(ValueError, match="no Poincare dual on level 1"):
        _dual(moved, 2)
    with pytest.raises(ValueError, match="no Poincare dual"):
        expand_pair(moved, SchubertClass(1, 1), SchubertClass(2, 2))


def _dual_regime_pairs(table):
    """The pairs (u, v), l(u) <= l(v), whose product expand_pair reads off duals."""
    top = table.lmax
    for a in range(top + 1):
        for b in range(a, top - a + 1):
            if top - (a + b) >= b:
                continue
            for i in range(1, table.beta(a) + 1):
                for j in range(i if a == b else 1, table.beta(b) + 1):
                    yield SchubertClass(a, i), SchubertClass(b, j)


def _per_target(table, u, v):
    """s_u * s_v by the single-target formula along each target's own word."""
    r = u.r + v.r
    values = {
        (r, k): characteristic(table, SchubertClass(r, k), [u, v])
        for k in range(1, table.beta(r) + 1)
    }
    return {t: x for t, x in values.items() if x}


PAIR_TABLES = [
    ("G2", (1, 2)),
    ("A3", (1, 2, 3)),
    ("B3", (1, 2, 3)),
    ("C3", (1, 2, 3)),
    ("A4", (1, 2, 3, 4)),
    ("D5", (5,)),
    ("E6", (1,)),
]


@pytest.mark.parametrize(
    "lie, K", PAIR_TABLES, ids=[f"{lie}-K{''.join(map(str, K))}" for lie, K in PAIR_TABLES]
)
def test_dual_route_matches_the_per_target_sweep(lie, K):
    table = enumerate_cosets(LieType.parse(lie), set(K))
    pairs = list(_dual_regime_pairs(table))
    assert pairs
    for u, v in pairs:
        expected = _per_target(table, u, v)
        assert expand_pair(table, u, v) == expected, (lie, u, v)
        assert expand_pair(table, v, u) == expected


# The short factor has at most 6 letters, as in every product of the E6/P2
# presentation (its generators have degree 1, 3, 4 and 6).  The oracle
# along the target's word takes up to 0.7 s on such a pair, and up to 20 s
# on (8, 13) or (10, 11) pairs.
_E6P2_DUAL_PAIRS = [(u, v) for u, v in _dual_regime_pairs(_table("E6", (2,))) if u.r <= 6]


@given(pair=st.sampled_from(_E6P2_DUAL_PAIRS))
@seed(20261019)
@settings(max_examples=30, deadline=None)
def test_dual_route_matches_the_per_target_sweep_on_e6_p2(pair):
    # a fresh table each time, so no product is read from an earlier test
    table = enumerate_cosets(LieType.parse("E6"), {2})
    u, v = pair
    assert expand_pair(table, u, v) == _per_target(table, u, v)


def test_truncated_table_keeps_the_direct_route(monkeypatch):
    full = _table("E6", (1,))
    cut = 11
    below = [(u, v) for u, v in _dual_regime_pairs(full) if u.r + v.r <= cut]
    assert below
    expected = {(u, v): expand_pair(full, u, v) for u, v in below}

    def no_duals(*args):
        raise AssertionError("the dual route ran on a truncated table")

    monkeypatch.setattr(characteristics, "_dual", no_duals)
    part = enumerate_cosets(E6, {1}, max_length=cut)
    assert not part.complete
    for u, v in below:
        assert expand_pair(part, u, v) == expected[(u, v)], (u, v)


@functools.lru_cache(maxsize=None)
def _full_flag(lie_type):
    return enumerate_cosets(lie_type, range(1, lie_type.rank + 1))


def _matches_characteristics(table, factors):
    """expand_product against the per-target formula on every class of its level."""
    degree = sum(f.r for f in factors)
    expected = {}
    for i in range(1, table.beta(degree) + 1):
        value = characteristic(table, SchubertClass(degree, i), factors)
        if value:
            expected[SchubertClass(degree, i)] = value
    return expand_product(table, factors).coeffs == expected


@given(name=st.sampled_from(["A3", "B3", "C3", "G2", "D4", "F4/P1"]), data=st.data())
@settings(max_examples=80, deadline=None)
def test_fast_paths_match_expand_product(f4_p1, name, data):
    # the fold (Chevalley's walk for degree one, pair products otherwise)
    # against the k-factor sweep of `characteristic`, one target at a time
    table = f4_p1 if name == "F4/P1" else _full_flag(LieType.parse(name))
    k = data.draw(st.integers(2, 4), label="k")
    factors, budget = [], 6
    for t in range(k):
        r = data.draw(st.integers(0, budget - (k - 1 - t)), label="r")
        i = data.draw(st.integers(1, table.beta(r)), label="i")
        factors.append(SchubertClass(r, i))
        budget -= r
    assert _matches_characteristics(table, factors)


def test_four_factors_on_f4_full_flag_match_characteristics(f4_full):
    factors = [SchubertClass(2, 1), SchubertClass(2, 2), SchubertClass(2, 3), SchubertClass(2, 1)]
    assert _matches_characteristics(f4_full, factors)


def test_deep_fold_needs_no_recursion(f4_p1):
    w1 = SchubertClass(1, 1)
    assert expand_class_monomial(f4_p1, [w1] * 1200) == {}
    part = enumerate_cosets(F4, {1}, max_length=5)
    with pytest.raises(ValueError, match="truncated"):
        expand_class_monomial(part, [w1] * 1200)


# the table caches data about itself only, each kind bounded by its size
TABLE_CACHE_KINDS = {"pair", "cover", "dual"}


def _cache_kinds(table):
    return {key[0] for key in table._cache}


@pytest.mark.parametrize(
    "factors, expected",
    [
        ([(1, 1)] * 1200, {}),  # zero from the 16th factor on
        ([(0, 1)] * 300 + [(1, 1)], {(1, 1): 1}),  # identity factors are units
        ([(0, 1)] * 3, {(0, 1): 1}),
    ],
    ids=["w1^1200", "identity^300-w1", "identity^3"],
)
def test_monomials_leave_no_cache_entries(factors, expected):
    table = enumerate_cosets(F4, {1})
    assert expand_class_monomial(table, factors) == expected
    assert expand_class_monomial(table, factors) == expected
    assert _cache_kinds(table) <= TABLE_CACHE_KINDS
    with pytest.raises(KeyError):
        expand_class_monomial(table, [(0, 2), (1, 1)])


def test_product_sweeps_cache_only_table_data():
    table = enumerate_cosets(F4, {1})
    w1, y3 = SchubertClass(1, 1), SchubertClass(3, 1)
    assert expand_product(table, [w1, y3, y3, w1, w1]).coeffs
    gens = minimal_generators(table)
    x = gens.ring.variable
    words = {g.name: g.word for g in gens}
    assert expand_polynomial(table, x("w1") ** 3 - 2 * x("y3"), words) == {}
    minimal_relations(table, gens, table.lmax + 6)
    assert _cache_kinds(table) == TABLE_CACHE_KINDS


def _vandalize(value):
    """Try to empty and extend a returned mapping in place."""
    try:
        value.clear()
    except AttributeError:
        pass
    try:
        value[(99, 99)] = 1
    except TypeError:
        pass


def test_returned_products_do_not_alias_cached_ones():
    table = enumerate_cosets(F4, {1})
    w1, y3 = SchubertClass(1, 1), SchubertClass(3, 1)
    fresh = enumerate_cosets(F4, {1})
    square = expand_pair(fresh, y3, y3)
    cube = expand_class_monomial(fresh, [w1] * 3)
    assert square and cube
    _vandalize(expand_pair(table, y3, y3))
    assert expand_pair(table, y3, y3) == square
    assert expand_product(table, [y3, y3]).coeffs == {
        SchubertClass(*k): v for k, v in square.items()
    }
    _vandalize(expand_class_monomial(table, [w1] * 3))
    assert expand_class_monomial(table, [w1] * 3) == cube
    gens = minimal_generators(table)
    e = tuple(int(g.name == "w1") * 3 for g in gens)
    _vandalize(gens.expand_exponents(e))
    assert gens.expand_exponents(e) == cube
    assert gens.expand_exponents((1,) + e[1:]) == {(1, 1): 1}


@pytest.mark.parametrize(
    "name, K",
    [("F4", {1}), ("E6", {2}), ("B3", {1, 2, 3})],
    ids=["F4-P1", "E6-P2", "B3-T"],
)
def test_generator_set_memo_matches_the_fold(name, K):
    table = enumerate_cosets(LieType.parse(name), K)
    gens = minimal_generators(table)
    classes = [table.class_of_word(g.word) for g in gens]
    count = 0
    for m in range(9):
        for e in monomial_exponents(gens.ring, m):
            factors = [c for c, k in zip(classes, e) for _ in range(k)]
            assert gens.expand_exponents(e) == expand_class_monomial(table, factors), e
            count += 1
    assert count > 20


def test_multiply_vec_by_class_linear(f4_p1):
    w1 = SchubertClass(1, 1)
    y3 = SchubertClass(3, 1)
    vec = {(3, 1): 2, (3, 2): -1} if f4_p1.beta(3) > 1 else {(3, 1): 2}
    out = multiply_vec_by_class(f4_p1, vec, w1)
    # compare against separate expansions
    expected = {}
    for (r, i), c in vec.items():
        row = expand_pair(f4_p1, SchubertClass(r, i), w1)
        for t, v in row.items():
            expected[t] = expected.get(t, 0) + c * v
    expected = {t: v for t, v in expected.items() if v}
    assert out == expected
    assert multiply_vec_by_class(f4_p1, {}, y3) == {}


# ------------------------------------------------------------- Chevalley path


def _drop_one_classes(table, letters):
    """{p: key of the class whose word is `letters` without position p}.

    Only reduced drops count: a word that is not reduced can still name a
    shorter class.
    """
    out = {}
    for p in range(len(letters)):
        u = WeylElement.from_word(table.lie_type, letters[:p] + letters[p + 1:])
        if len(u.word) != len(letters) - 1:
            continue
        found = table.index_of_inv_root_rows(u.inv_root_rows, len(letters) - 1)
        if found is not None:
            out[p] = found
    return out


def _operator_sums(lie_type, letters, positions):
    """{p: (sum over j with letter_j = l of T(x_{all but p} * x_j), l = 1..n)}.

    The degree-1 coefficients through the triangular operator of the word's
    Cartan matrix; by linearity each sum over j is one form.
    """
    a = cartan_matrix_of_word(lie_type, letters)
    m = len(letters)
    out = {}
    for p in positions:
        sums = []
        for letter in range(1, lie_type.rank + 1):
            form = {}
            for j in range(m):
                if letters[j] == letter:
                    exp = [1] * m
                    exp[p] -= 1
                    exp[j] += 1
                    form[tuple(exp)] = 1
            sums.append(evaluate_exponents(a, form) if form else 0)
        out[p] = tuple(sums)
    return out


COROOT_WALK_TABLES = [
    ("G2", (1, 2)),
    ("B3", (1, 2, 3)),
    ("C3", (1, 2, 3)),
    ("D4", (1, 2, 3, 4)),
    ("B4", (2, 4)),
    ("C4", (1,)),
    ("F4", (1, 2, 3, 4)),
    ("F4", (1,)),
    ("E6", (2,)),
]


def _cover_pairs(table, r):
    """{(key of u, k): beta^vee} read off the source-indexed rows of level r."""
    covers = _cover_data(table, r)
    assert len(covers) == table.beta(r - 1)
    pairs = {}
    for j, row in enumerate(covers, start=1):
        ks = [k for k, _ in row]
        assert ks == sorted(set(ks)), (r, j)
        assert all(1 <= k <= table.beta(r) for k in ks), (r, j)
        pairs.update((((r - 1, j), k), coroot) for k, coroot in row)
    return pairs


def _drop_one_pairs(table, r):
    """{(key of u, k)} for each reduced drop u of the word of (r, k)."""
    return {
        (u, k)
        for k, w in enumerate(table.levels[r], start=1)
        for u in _drop_one_classes(table, w.word).values()
    }


@pytest.mark.parametrize(
    "lie, K",
    COROOT_WALK_TABLES,
    ids=[f"{lie}-K{''.join(map(str, K))}" for lie, K in COROOT_WALK_TABLES],
)
def test_coroot_walk_matches_operator(lie, K):
    lt = LieType.parse(lie)
    table = enumerate_cosets(lt, set(K))
    for r in range(1, table.lmax + 1):
        expected = {}
        for k, w in enumerate(table.levels[r], start=1):
            drops = _drop_one_classes(table, w.word)
            sums = _operator_sums(lt, w.word, drops)
            expected.update(((u, k), sums[p]) for p, u in drops.items())
        assert _cover_pairs(table, r) == expected, r


# F4/T only for its pairs: the operator path over its 1,152 classes is slow
@pytest.mark.parametrize(
    "name, products",
    [("a3_full", True), ("b3_full", True), ("f4_full", False), ("f4_p1", True),
     ("e6_p2", True), ("e7_p2", True)],
)
def test_cover_keys_lie_on_the_level_below(name, products, request):
    # dropping a letter of 2,3,2,1 in F4 can leave 2,2,1, which is s_1, a
    # class two levels down; such a drop has no row, and each product by a
    # weight class still equals the operator path
    table = request.getfixturevalue(name)
    weights = [SchubertClass(1, j) for j in range(1, table.beta(1) + 1)]
    for r in range(1, table.lmax + 1):
        assert _cover_pairs(table, r).keys() == _drop_one_pairs(table, r), r
        if not products:
            continue
        for j in range(1, table.beta(r - 1) + 1):
            u = SchubertClass(r - 1, j)
            for omega in weights:
                product = multiply_vec_by_class(table, {u.key(): 1}, omega)
                assert product == expand_pair(table, u, omega), (u, omega)


@pytest.mark.parametrize(
    "lie, K",
    [("B3", (1, 2, 3)), ("G2", (1, 2)), ("F4", (1,)), ("E6", (2,))],
    ids=["B3-T", "G2-T", "F4-P1", "E6-P2"],
)
def test_degree1_product_is_linear(lie, K):
    # vectors over a level, some weighted so that two one-class products
    # cancel on a shared target: the product is the sum of the one-class
    # products (by the operator path), with zero coefficients dropped
    table = enumerate_cosets(LieType.parse(lie), set(K))
    rng = random.Random(19)
    cancelled = 0
    for r in range(1, table.lmax + 1):
        level = [SchubertClass(r - 1, j) for j in range(1, table.beta(r - 1) + 1)]
        for omega in (SchubertClass(1, l) for l in range(1, table.beta(1) + 1)):
            rows = {u.key(): expand_pair(table, u, omega) for u in level}
            vectors = [{u: rng.randint(-3, 3) or 1 for u in rows}]
            for a, b in itertools.combinations(rows, 2):
                shared = sorted(rows[a].keys() & rows[b].keys())
                if shared:
                    t = shared[0]
                    vectors.append({a: rows[b][t], b: -rows[a][t]})
                    break
            for vec in vectors:
                expected = {}
                for u, cu in vec.items():
                    for t, av in rows[u].items():
                        expected[t] = expected.get(t, 0) + cu * av
                support = len(expected)
                expected = {t: v for t, v in expected.items() if v}
                cancelled += len(expected) < support
                assert multiply_vec_by_class(table, vec, omega) == expected, (vec, omega)
    assert cancelled


def test_degree1_product_rejects_classes_outside_the_table(f4_p1):
    w1 = SchubertClass(1, 1)
    for absent in [(3, 3), (3, 0), (3, -1)]:
        with pytest.raises(KeyError):
            multiply_vec_by_class(f4_p1, {(3, 1): 1, absent: 2}, w1)
    with pytest.raises(KeyError):
        multiply_vec_by_class(f4_p1, {(3, 1): 1}, SchubertClass(1, 2))


def test_presentation_caches_no_pair_with_the_identity():
    # each generator's first power is its class times the identity vector,
    # which needs no pair product
    table = enumerate_cosets(E6, {2})
    gens = minimal_generators(table)
    minimal_relations(table, gens, table.lmax)
    pairs = [key for key in table._cache if key[0] == "pair"]
    assert pairs
    assert not [key for key in pairs if (0, 1) in key[1:]]
    vec = {(0, 1): 3}
    for cls in (SchubertClass(0, 1), SchubertClass(1, 1), SchubertClass(6, 2)):
        assert multiply_vec_by_class(table, vec, cls) == {cls.key(): 3}
    with pytest.raises(KeyError):
        multiply_vec_by_class(table, vec, SchubertClass(6, 9))
    with pytest.raises(KeyError):
        multiply_vec_by_class(table, {(0, 2): 1}, SchubertClass(6, 2))


def test_gysin_adds_no_monomial_cache_entries():
    for lie, i, up_to in [("F4", 1, 15), ("E7", 2, 20)]:
        table = enumerate_cosets(LieType.parse(lie), {i})
        gysin_analysis(table, i, up_to)
        # the rows of A_1 are the identity times omega, which needs no cover data
        assert set(table._cache) == {("cover", r) for r in range(2, up_to + 1)}, lie


def test_gysin_matrices_match_general_path(f4_p1):
    omega = SchubertClass(1, 1)
    gy = gysin_analysis(f4_p1, 1, f4_p1.lmax)
    assert sorted(gy.matrices) == list(range(1, f4_p1.lmax + 1))
    for r, rows in gy.matrices.items():
        expected = [
            [
                characteristic(f4_p1, SchubertClass(r, k), [SchubertClass(r - 1, j), omega])
                for k in range(1, f4_p1.beta(r) + 1)
            ]
            for j in range(1, f4_p1.beta(r - 1) + 1)
        ]
        assert rows == expected, r


def test_one_class_monomial_is_the_class(f4_p1, monkeypatch):
    def no_pair_products(*args):
        raise AssertionError("expand_pair called for a one-class monomial")

    monkeypatch.setattr(characteristics, "expand_pair", no_pair_products)
    for r, i, _ in f4_p1:
        assert expand_class_monomial(f4_p1, [(r, i)]) == {(r, i): 1}
    assert expand_class_monomial(f4_p1, [SchubertClass(4, 2)]) == {(4, 2): 1}
    for absent in [(4, 3), (16, 1), (-1, 1)]:
        with pytest.raises(KeyError):
            expand_class_monomial(f4_p1, [absent])


def test_identity_class_returns_the_vector(f4_p1, monkeypatch):
    def no_pair_products(*args):
        raise AssertionError("expand_pair called for the identity class")

    expected = gysin_analysis(f4_p1, 1, f4_p1.lmax).matrices
    monkeypatch.setattr(characteristics, "expand_pair", no_pair_products)
    one = SchubertClass(0, 1)
    for r in (0, 1, 7, f4_p1.lmax):
        vec = {(r, i): 3 * i - 5 for i in range(1, f4_p1.beta(r) + 1)}
        assert multiply_vec_by_class(f4_p1, vec, one) == vec
    with pytest.raises(KeyError):
        multiply_vec_by_class(f4_p1, {(2, 1): 1}, SchubertClass(0, 2))
    for absent in [(3, 99), (3, 0), (-1, 1)]:
        with pytest.raises(KeyError):
            multiply_vec_by_class(f4_p1, {(3, 1): 1, absent: 2}, one)
    # a fresh table, so nothing cached on f4_p1 hides a pair product
    fresh = enumerate_cosets(F4, {1})
    assert gysin_analysis(fresh, 1, fresh.lmax).matrices == expected


# ------------------------------------------------------------- LR oracle


def test_lr_oracle_self_checks():
    # hand values
    assert lr_coefficient((), (1,), (1,)) == 1
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((1,), (1,), (3,)) == 0
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((1,), (2, 1), (2, 2)) == 1
    # Pieri: s_(1) * s_(1) = s_(2) + s_(1,1)
    assert schur_product_in_box((1,), (1,), 2, 2) == {(2,): 1, (1, 1): 1}
    # box truncation drops s_(3)
    assert schur_product_in_box((2,), (1,), 2, 2) == {(2, 1): 1}


def test_grassmannian_pieri_vs_oracle():
    # G(2,4): s_(1)*s_(2) = s_(3) + s_(2,1); only a spot check here, the
    # full sweep runs in the acceptance suite
    table = enumerate_cosets(A3, {2})
    from grassmannian import partition_class_maps

    to_class, to_partition = partition_class_maps(table, 2)
    s1 = to_class[(1,)]
    s2 = to_class[(2,)]
    exp = expand_product(table, [s1, s2])
    got = {to_partition[c.key()]: v for c, v in exp.coeffs.items()}
    assert got == schur_product_in_box((1,), (2,), 2, 2)
