"""End-to-end acceptance sweep, one test per gate of the build contract.

Every test checks exact values within a stated wall-clock budget and
records one summary line; the lines are printed together in the
"acceptance criteria" section at the end of the pytest run.  Two
whole-torus checks on the largest exceptional groups are long extended
runs, disabled unless SCHUBERT_EXTENDED is set; the Spin(8) check probes
two readings of an ambiguous classical dictionary and is non-gating when
neither works.
"""

import itertools
import os
import random
from contextlib import contextmanager
from time import perf_counter

import pytest

import presentation_data as data
from along_word import characteristic_with_word
from brute_weyl import brute_right_descents
from classical_forms import special_unitary_forms, spin_relations_reduced
from grassmannian import partition_class_maps
from lr_oracle import schur_product_in_box
from schubert.cartan import LieType
from schubert.characteristics import (
    SchubertClass,
    characteristic,
    expand_product,
)
from schubert.cohomology import (
    elementary_symmetric,
    expand_polynomial,
    graded_ideal_span,
    gysin_analysis,
    invariant_on_parabolic,
    minimal_generators,
    minimal_relations,
    rewrite_in_generators,
    weight_orbit,
    weight_ring,
    weyl_orbit_invariants,
)
from schubert.intpoly import PolyRing, monomial_exponents, parse_polynomial
from schubert.triangular import StrictUpperMatrix, evaluate_exponents
from schubert.weyl import WeylElement, enumerate_cosets

EXTENDED = pytest.mark.skipif(
    not os.environ.get("SCHUBERT_EXTENDED"),
    reason="whole-torus E-type check; set SCHUBERT_EXTENDED=1 to run",
)


@contextmanager
def criterion(record, label, budget_seconds):
    """Record one PASS/FAIL line, enforcing the wall-clock budget."""
    t0 = perf_counter()
    try:
        yield
    except BaseException as exc:
        record(f"FAIL  {label}: {type(exc).__name__}: {exc}")
        raise
    elapsed = perf_counter() - t0
    if elapsed >= budget_seconds:
        record(f"FAIL  {label}: took {elapsed:.1f}s, budget {budget_seconds}s")
        pytest.fail(f"{label}: {elapsed:.1f}s exceeds {budget_seconds}s")
    record(f"PASS  {label} ({elapsed:.1f}s, budget {budget_seconds}s)")


# -- 1: the operator sends the product of all variables to 1 -------------------


def test_criterion_1_operator_normalization(acceptance_record):
    rng = random.Random(314159)
    with criterion(acceptance_record, "operator identity on 200 random matrices", 1.0):
        for _ in range(200):
            m = rng.randint(1, 8)
            A = StrictUpperMatrix.from_entry_fn(m, lambda i, j: rng.randint(-3, 3))
            assert evaluate_exponents(A, {(1,) * m: 1}) == 1


# -- 2: type-A products against the tableau-rule oracle ------------------------


def test_criterion_2_grassmannian_oracle(acceptance_record):
    with criterion(acceptance_record, "all Grassmannian products (n<=5) vs LR oracle", 30.0):
        pairs = 0
        for n in range(2, 6):
            lt = LieType.parse(f"A{n - 1}")
            for k in range(1, n):
                table = enumerate_cosets(lt, {k})
                to_class, to_partition = partition_class_maps(table, k)
                classes = [(r, i) for r, i, _ in table]
                for (r1, i1), (r2, i2) in itertools.product(classes, classes):
                    got = expand_product(
                        table, [SchubertClass(r1, i1), SchubertClass(r2, i2)]
                    )
                    expected = schur_product_in_box(
                        to_partition[(r1, i1)], to_partition[(r2, i2)], k, n - k
                    )
                    assert {
                        to_partition[c.key()]: v for c, v in got.coeffs.items()
                    } == expected, ((r1, i1), (r2, i2), n, k)
                    pairs += 1
        assert pairs == 340  # sum of C(n,k)^2 over 2<=n<=5, 1<=k<n


# -- 3: the rank-one exceptional base presentation ------------------------------


def test_criterion_3_f4_base_presentation(f4_p1, acceptance_record):
    with criterion(acceptance_record, "F4/P1 relations vanish + minimal degrees {3,6,8,12}", 60.0):
        gens = data.generator_set(f4_p1, data.F4_WORDS)
        for text in data.F4_BASE_RELATIONS:
            rel = parse_polynomial(gens.ring, text)
            assert not expand_polynomial(f4_p1, rel, data.F4_WORDS), text
        pres = minimal_relations(f4_p1, gens, 12)
        assert pres.relation_degrees() == (3, 6, 8, 12)


# -- 4: torsion of the circle bundles (Gysin tables) ----------------------------

F4_CIRCLE_GROUPS = {
    0: (1, ()),
    6: (0, (2,)),
    8: (1, ()),
    12: (0, (4,)),
    14: (0, (2,)),
    16: (0, (3,)),
    18: (0, (2,)),
    20: (0, (4,)),
    23: (1, ()),
    26: (0, (2,)),
}

E6_CIRCLE_GROUPS = {
    0: (1, ()),
    6: (1, ()),
    8: (1, ()),
    12: (1, ()),
    14: (1, ()),
    16: (0, (3,)),
    18: (0, (2,)),
    20: (1, ()),
    22: (0, (3,)),
    23: (1, ()),
    26: (0, (2,)),
    28: (0, (3,)),
    29: (1, ()),
}


def _check_circle_groups(table, node, expected, up_to_degree):
    gysin = gysin_analysis(table, node, (up_to_degree + 1) // 2)
    for k in range(up_to_degree + 1):
        g = gysin.group(k)
        free, torsion = expected.get(k, (0, ()))
        assert (g.free_rank, tuple(g.torsion)) == (free, torsion), (
            f"H^{k} = {g}, expected free {free} torsion {torsion}"
        )
    return gysin


def test_criterion_4_gysin_f4(f4_p1, acceptance_record):
    with criterion(acceptance_record, "F4 circle-bundle groups through degree 26", 60.0):
        gysin = _check_circle_groups(f4_p1, 1, F4_CIRCLE_GROUPS, 26)
        assert gysin.odd_kernels[23] in ([[2, -1]], [[-2, 1]])


def test_criterion_4_gysin_e6(e6_p2, acceptance_record):
    with criterion(acceptance_record, "E6 circle-bundle groups through degree 29", 600.0):
        gysin = _check_circle_groups(e6_p2, 2, E6_CIRCLE_GROUPS, 29)
        d23 = [1, -1, -1, 1, -1, 1]
        d29 = [-1, 1, 0, 1, -1]
        assert gysin.odd_kernels[23] in ([d23], [[-x for x in d23]])
        assert gysin.odd_kernels[29] in ([d29], [[-x for x in d29]])


# -- 5: reflection orbits and the invariant-to-generator glue --------------------

GLUE_SEEDS = {"F4": 4, "E6": 6, "E7": 7}


def test_criterion_5_orbits_and_glue(acceptance_record):
    with criterion(acceptance_record, "orbit sets verbatim + glue g4/g3/g7 reproduced", 300.0):
        assert weight_orbit(LieType.parse("F4"), {1}, 4) == data.F4_ORBIT
        assert weight_orbit(LieType.parse("E6"), {2}, 6) == data.E6_ORBIT
        textual = []
        for lt_name, node, words, r, expected_text in data.GLUE_CHECKS:
            lt = LieType.parse(lt_name)
            table = enumerate_cosets(lt, {node})
            gens = data.generator_set(table, words)
            c_r = weyl_orbit_invariants(lt, {node}, GLUE_SEEDS[lt_name])[r - 1]
            vec = invariant_on_parabolic(table, c_r)
            g = rewrite_in_generators(table, gens, vec)
            expected = parse_polynomial(gens.ring, expected_text)
            # the reference polynomial hits the identical Schubert vector
            assert expand_polynomial(table, expected, words) == vec, (lt_name, r)
            # and the computed rewrite agrees with it modulo the relation ideal
            pres = minimal_relations(table, gens, r)
            span = graded_ideal_span(gens.ring, pres.relations, r)
            diff = g - expected
            assert not diff.terms or span.reduce(diff.terms) == {}, (lt_name, r)
            textual.append(str(g) == expected_text)
        acceptance_record(
            f"      glue textual match (informative): {sum(textual)}/{len(textual)}"
        )


# -- 6: relations of the assembled/base presentations vanish ---------------------


def _full_flag_context(lie_type, node, seed, gen_words, gen_degrees):
    """(ring, v-dict, words) for evaluating full-flag relation builders."""
    rank = lie_type.rank
    names = tuple(f"w{i}" for i in range(1, rank + 1)) + tuple(gen_words)
    degrees = (1,) * rank + tuple(gen_degrees)
    ring = PolyRing(names, degrees)
    v = {name: ring.variable(name) for name in names}
    for r, c in enumerate(weyl_orbit_invariants(lie_type, {node}, seed), start=1):
        v[f"c{r}"] = c.rename_into(ring)
    words = {f"w{i}": (i,) for i in range(1, rank + 1)}
    words.update(gen_words)
    return ring, v, words


def test_criterion_6_f4_whole_flag_relations(f4_full, acceptance_record):
    with criterion(acceptance_record, "F4/T: all assembled relations vanish (1152 classes)", 900.0):
        _, v, words = _full_flag_context(
            LieType.parse("F4"), 1, 4,
            {"y3": (3, 2, 1), "y4": (4, 3, 2, 1)}, (3, 4),
        )
        for build in data.F4_FULL_RELATIONS:
            rel = build(v)
            assert not expand_polynomial(f4_full, rel, words), str(rel)


def test_criterion_6_e6_base_relations(e6_p2, acceptance_record):
    with criterion(acceptance_record, "E6/P2: base relations vanish (72 classes)", 900.0):
        gens = data.generator_set(e6_p2, data.E6_WORDS)
        for text in data.E6_BASE_RELATIONS:
            rel = parse_polynomial(gens.ring, text)
            assert not expand_polynomial(e6_p2, rel, data.E6_WORDS), text


def test_criterion_6_e7_base_relations(e7_p2, acceptance_record):
    with criterion(acceptance_record, "E7/P2: base relations vanish (576 classes)", 900.0):
        gens = data.generator_set(e7_p2, data.E7_WORDS)
        for text in data.E7_BASE_RELATIONS:
            rel = parse_polynomial(gens.ring, text)
            assert not expand_polynomial(e7_p2, rel, data.E7_WORDS), text


@EXTENDED
def test_criterion_6_extended_e6_whole_flag(acceptance_record):
    with criterion(acceptance_record, "extended E6/T: assembled relations vanish", 3600.0):
        lt = LieType.parse("E6")
        table = enumerate_cosets(lt, range(1, 7), max_length=12)
        _, v, words = _full_flag_context(
            lt, 2, 6, {"y3": data.E6_WORDS["y3"], "y4": data.E6_WORDS["y4"]}, (3, 4)
        )
        for build in data.E6_FULL_RELATIONS:
            rel = build(v)
            assert not expand_polynomial(table, rel, words), str(rel)


@EXTENDED
def test_criterion_6_extended_e7_whole_flag(acceptance_record):
    with criterion(acceptance_record, "extended E7/T: assembled relations vanish", 14400.0):
        lt = LieType.parse("E7")
        table = enumerate_cosets(lt, range(1, 8), max_length=18)
        gen_words = {
            "y3": data.E7_WORDS["y3"],
            "y4": data.E7_WORDS["y4"],
            "y5": data.E7_WORDS["y5"],
            "y9": data.E7_WORDS["y9"],
        }
        _, v, words = _full_flag_context(lt, 2, 7, gen_words, (3, 4, 5, 9))
        for build in data.E7_FULL_RELATIONS:
            rel = build(v)
            assert not expand_polynomial(table, rel, words), str(rel)


# -- 7: positivity and symmetry of random characteristics ------------------------


def test_criterion_7_positivity_and_symmetry(acceptance_record):
    with criterion(acceptance_record, "1000 random triples: >=0, factor- and word-invariant", 300.0):
        rng = random.Random(20260814)
        tables = {
            name: enumerate_cosets(
                LieType.parse(name), range(1, LieType.parse(name).rank + 1)
            )
            for name in ("A3", "B3", "C3", "D4", "G2", "F4")
        }
        names = sorted(tables)
        for _ in range(1000):
            table = tables[rng.choice(names)]
            r = rng.randint(3, min(table.lmax, 12))
            cuts = sorted(rng.sample(range(1, r), 2))
            lens = (cuts[0], cuts[1] - cuts[0], r - cuts[1])
            factors = [SchubertClass(l, rng.randint(1, table.beta(l))) for l in lens]
            target = SchubertClass(r, rng.randint(1, table.beta(r)))
            a = characteristic(table, target, factors)
            assert a >= 0, (table.lie_type, target, factors)
            shuffled = list(factors)
            rng.shuffle(shuffled)
            assert characteristic(table, target, shuffled) == a
            element = table.element(target.r, target.i)
            lt = table.lie_type
            descents = brute_right_descents(lt, element.word)
            for i in rng.sample(range(1, lt.rank + 1), lt.rank):
                if i in descents:
                    lower = WeylElement.from_word(lt, element.word + (i,))
                    assert characteristic_with_word(
                        table, lower.word + (i,), factors
                    ) == a
                    break


# -- 8: whole-flag presentations of the special unitary groups --------------------


def test_criterion_8_special_unitary_presentations(acceptance_record):
    with criterion(acceptance_record, "SU(n)/T ideals match <c2..cn> per degree (n<=4)", 120.0):
        for n in (2, 3, 4):
            lt = LieType.parse(f"A{n - 1}")
            table = enumerate_cosets(lt, range(1, n))
            gens = minimal_generators(table)
            assert tuple(g.degree for g in gens) == (2,) * (n - 1)
            # relation degrees can exceed the top level (n=2: relation w1^2
            # in degree 2 over a 1-dimensional flag), so sweep a bit past it
            up_to = table.lmax + 2
            pres = minimal_relations(table, gens, up_to)
            assert sorted(pres.relation_degrees()) == list(range(2, n + 1))
            ring = gens.ring
            cs = elementary_symmetric(weight_ring(n - 1), special_unitary_forms(n))
            expected = [c.rename_into(ring) for c in cs[1:n]]
            for m in range(1, up_to + 1):
                got = graded_ideal_span(ring, pres.relations, m)
                want = graded_ideal_span(ring, expected, m)
                assert got.canonical_basis() == want.canonical_basis(), (n, m)
                b = len(monomial_exponents(ring, m))
                assert b - got.rank == table.beta(m), (n, m)


# -- 9: the even orthogonal desk check -------------------------------------------


def test_criterion_9_spin8_relations(acceptance_record):
    table = enumerate_cosets(LieType.parse("D4"), range(1, 5))
    with criterion(acceptance_record, "Spin(8)/T reduced relations vanish", 300.0):
        _, relations, words = spin_relations_reduced(4)
        for k, rel in enumerate(relations, start=1):
            assert not expand_polynomial(table, rel, words), (k, str(rel))
