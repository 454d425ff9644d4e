"""Tests for the presentation pipeline: structure matrices, generator and
relation selection, Giambelli inversion, Gysin tables, orbit invariants,
full-flag assembly, and the even-spin relation families."""

import json
import subprocess
import sys

import pytest

import presentation_data as data
import smith_relations
from smith_cokernel import smith_cokernel
from smith_giambelli import smith_giambelli
from classical_forms import (
    special_unitary_forms,
    spin_even_forms,
    spin_relations,
    spin_relations_reduced,
    symplectic_forms,
)
from schubert import cohomology, intlinalg
from schubert.cartan import LieType
from schubert.cli import main
from schubert.cohomology import (
    Generator,
    Presentation,
    _fills_kernel,
    assemble_full_flag,
    elementary_symmetric,
    expand_polynomial,
    giambelli,
    graded_ideal_span,
    gysin_analysis,
    invariant_on_parabolic,
    minimal_generators,
    minimal_relations,
    relation_kernel,
    rewrite_in_generators,
    structure_matrix,
    weight_orbit,
    weight_ring,
    weyl_orbit_invariants,
)
from schubert.intlinalg import (
    AbelianGroupStructure,
    SparseIntLattice,
    determinant,
    kernel_basis,
)
from schubert.intpoly import PolyRing, monomial_exponents, parse_polynomial
from schubert.weyl import enumerate_cosets

A2 = LieType.parse("A2")
F4 = LieType.parse("F4")
E6 = LieType.parse("E6")


@pytest.fixture(scope="module")
def f4_gens(f4_p1):
    return data.generator_set(f4_p1, sorted(data.F4_WORDS.items()))


@pytest.fixture(scope="module")
def e6_gens(e6_p2):
    return data.generator_set(e6_p2, sorted(data.E6_WORDS.items()))


# -- generator sets ---------------------------------------------------------


def test_generator_set_rejects_duplicates(f4_p1):
    with pytest.raises(ValueError, match="duplicate"):
        data.generator_set(f4_p1, [("w1", (1,)), ("w1", (1,))])


def test_generator_set_rejects_foreign_word(f4_p1):
    with pytest.raises(ValueError, match=r"^generator w2: word \[2\] is not a minimal rep"):
        data.generator_set(f4_p1, [("w2", (2,))])


def test_generator_set_rejects_a_word_that_is_not_reduced():
    # (1, 1) is a word of the identity: bound to the class (0, 1), it made
    # minimal_relations return the relation y2 = 0
    table = enumerate_cosets(A2, {1, 2})
    with pytest.raises(ValueError, match=r"^generator y2: word \[1, 1\] is not reduced$"):
        data.generator_set(table, [("w1", (1,)), ("w2", (2,)), ("y2", (1, 1))])
    gens = data.generator_set(table, [("w1", (1,)), ("w2", (2,)), ("y2", (1, 2))])
    relations = [str(r) for r in minimal_relations(table, gens, 3).relations]
    assert relations == ["w1^2 - w1*w2 + w2^2", "y2 + w1^2 - w1*w2", "w2*y2"]


def test_generator_set_orders_by_degree(f4_p1):
    gens = data.generator_set(
        f4_p1, [("y6", data.F4_WORDS["y6"]), ("w1", (1,)), ("y3", data.F4_WORDS["y3"])]
    )
    assert [g.name for g in gens] == ["w1", "y3", "y6"]
    assert gens.ring.degrees == (1, 3, 6)


def test_expand_exponents_rejects_bad_exponents(f4_gens):
    for bad in [(1, 0, 0), (1, 0, 0, 0, 0), (1, -1, 0, 0)]:
        with pytest.raises(ValueError, match="bad exponents"):
            f4_gens.expand_exponents(bad)
    assert f4_gens.expand_exponents((0, 0, 0, 0)) == {(0, 1): 1}


# -- structure matrices ------------------------------------------------------


def test_structure_matrix_degree_three(f4_p1, f4_gens):
    bundle = structure_matrix(f4_p1, f4_gens, 3)
    assert bundle.exponents == [(3, 0, 0, 0), (0, 1, 0, 0)]
    assert len(bundle.matrix) == 2
    assert bundle.matrix[0] == [2 * c for c in bundle.matrix[1]]
    assert bundle.matrix[1] == [1]


def test_structure_matrix_degree_zero(f4_p1, f4_gens):
    bundle = structure_matrix(f4_p1, f4_gens, 0)
    assert bundle.matrix == [[1]]


def test_structure_matrix_no_monomials(f4_p1):
    gens = data.generator_set(f4_p1, [("y3", data.F4_WORDS["y3"])])
    bundle = structure_matrix(f4_p1, gens, 2)
    assert bundle.matrix == []


# -- minimal generators ------------------------------------------------------


def test_minimal_generators_a2_full():
    table = enumerate_cosets(A2, {1, 2})
    gens = minimal_generators(table)
    assert [(g.name, g.word) for g in gens] == [("w1", (1,)), ("w2", (2,))]


def test_minimal_generators_f4(f4_p1):
    gens = minimal_generators(f4_p1)
    assert {g.name: g.word for g in gens} == data.F4_WORDS
    assert tuple(g.degree for g in gens) == (2, 6, 8, 12)


def test_minimal_generators_e6(e6_p2):
    # The lowest-index rule picks different (equally valid) words than the
    # reference choice in data.E6_WORDS; names, degrees, and the resulting
    # presentation shape must agree regardless.
    gens = minimal_generators(e6_p2)
    assert [g.name for g in gens] == ["w2", "y3", "y4", "y6"]
    assert tuple(g.degree for g in gens) == (2, 6, 8, 12)
    assert minimal_relations(e6_p2, gens, 12).relation_degrees() == (6, 8, 9, 12)


def test_minimal_generators_e7(e7_p2):
    # the lowest-index rule picks other words than data.E7_WORDS for y3, y4
    # and y5; the relations through 12 have the published degrees
    gens = minimal_generators(e7_p2, up_to=12)
    assert [(g.name, g.word) for g in gens] == [
        ("w2", (2,)),
        ("y3", (3, 4, 2)),
        ("y4", (1, 3, 4, 2)),
        ("y5", (3, 6, 5, 4, 2)),
        ("y6", (1, 3, 6, 5, 4, 2)),
        ("y7", (1, 3, 7, 6, 5, 4, 2)),
        ("y9", (1, 5, 4, 3, 7, 6, 5, 4, 2)),
    ]
    assert minimal_relations(e7_p2, gens, 12).relation_degrees() == (6, 8, 9, 10, 12)


def test_minimal_generators_requires_complete_table():
    table = enumerate_cosets(F4, {1}, max_length=4)
    with pytest.raises(ValueError, match="truncated"):
        minimal_generators(table)
    gens = minimal_generators(table, up_to=4)
    assert [g.name for g in gens] == ["w1", "y3", "y4"]


# -- relation kernels --------------------------------------------------------


def test_relation_kernel_degree_three(f4_p1, f4_gens):
    kern = relation_kernel(f4_p1, f4_gens, 3).kernel
    assert len(kern) == 1
    expected = parse_polynomial(f4_gens.ring, "2*y3 - w1^3")
    assert kern[0] in (expected, -expected)


def test_relation_kernel_degree_one_empty(f4_p1, f4_gens):
    assert relation_kernel(f4_p1, f4_gens, 1).kernel == []


@pytest.mark.parametrize(
    "gen,m,coker",
    [
        (("w1", (1,)), 3, "Z/2"),
        # no monomial in y3 reaches degree 1: an empty structure matrix
        (("y3", (3, 2, 1)), 1, "Z"),
    ],
    ids=["w1-degree-3", "y3-degree-1"],
)
def test_relation_kernel_requires_surjectivity(f4_p1, gen, m, coker):
    gens = data.generator_set(f4_p1, [gen])
    message = f"^generators do not span degree {m}: cokernel {coker}$"
    with pytest.raises(ValueError, match=message):
        relation_kernel(f4_p1, gens, m)
    with pytest.raises(ValueError, match=message):
        minimal_relations(f4_p1, gens, m + 1)


def test_minimal_relations_f4(f4_p1, f4_gens):
    pres = minimal_relations(f4_p1, f4_gens, 12)
    assert pres.relation_degrees() == (3, 6, 8, 12)
    for text in data.F4_BASE_RELATIONS:
        rel = parse_polynomial(f4_gens.ring, text)
        span = graded_ideal_span(f4_gens.ring, pres.relations, rel.degree())
        assert rel.terms in span
        assert not expand_polynomial(f4_p1, rel, data.F4_WORDS)


def test_minimal_relations_e6(e6_p2, e6_gens):
    pres = minimal_relations(e6_p2, e6_gens, 12)
    assert pres.relation_degrees() == (6, 8, 9, 12)
    for text in data.E6_BASE_RELATIONS:
        rel = parse_polynomial(e6_gens.ring, text)
        span = graded_ideal_span(e6_gens.ring, pres.relations, rel.degree())
        assert rel.terms in span


def test_fresh_generators_counts():
    from schubert.cohomology import _fresh_generators

    # quotient Z/2 + Z/3 is cyclic: one new generator must suffice, and no
    # single ROW of the given basis generates it (greedy row-keeping fails)
    basis = [[1, 0], [0, 1]]
    inside = [[2, 0], [0, 3]]
    new = _fresh_generators(basis, inside)
    assert len(new) == 1
    x, y = new[0]
    assert x % 2 and y % 3  # a generator must be odd in Z/2 and a unit in Z/3

    # already covered: nothing fresh
    assert _fresh_generators(basis, [[1, 0], [0, 1]]) == []
    # nothing inside: the basis itself
    assert _fresh_generators(basis, []) == [[1, 0], [0, 1]]
    assert _fresh_generators([], []) == []
    # free quotient of rank 1 hidden behind a mixing basis
    basis = [[8, -12, 1], [2, 1, 0], [4, -6, 0]]
    inside = [[10, -11, 1], [-2, 7, 0]]  # rows b1+b2 and b2-b3
    new = _fresh_generators(basis, inside)
    assert len(new) == 1


# (type, K, degree bound or None for lmax + 1); the D4/T bound keeps the
# always-Smith oracle to a few seconds (degree 8: 2.4 s on a 2-vCPU Xeon).
RELATION_TABLES = [
    ("F4", {1}, 15),
    ("E6", {2}, 21),
    ("A3", {1, 2, 3}, None),
    ("B3", {1, 2, 3}, None),
    ("C3", {1, 2, 3}, None),
    ("G2", {1, 2}, None),
    ("D4", {1, 2, 3, 4}, 8),
]


def _presented(name, K, up_to):
    table = enumerate_cosets(LieType.parse(name), K)
    return table, minimal_generators(table), up_to or table.lmax + 1


@pytest.mark.parametrize(
    "name,K,up_to",
    RELATION_TABLES,
    ids=["F4-P1", "E6-P2", "A3-T", "B3-T", "C3-T", "G2-T", "D4-T"],
)
def test_minimal_relations_match_always_smith(name, K, up_to):
    table, gens, up_to = _presented(name, K, up_to)
    fast = minimal_relations(table, gens, up_to)
    oracle = smith_relations.always_smith_relations(table, gens, up_to)
    assert [str(r) for r in fast.relations] == [str(r) for r in oracle.relations]


@pytest.mark.parametrize(
    "name,K,up_to",
    RELATION_TABLES,
    ids=["F4-P1", "E6-P2", "A3-T", "B3-T", "C3-T", "G2-T", "D4-T"],
)
def test_complement_test_matches_membership(name, K, up_to):
    # in every degree with a kernel, S = K by the complement rows agrees
    # with reducing each kernel basis row in S, and with the degree adding
    # no relation
    table, gens, up_to = _presented(name, K, up_to)
    pres = minimal_relations(table, gens, up_to)
    decided = 0
    for m in range(1, up_to + 1):
        split = relation_kernel(table, gens, m)
        if not split.kernel:
            continue
        lower = [r for r in pres.relations if r.degree() < m]
        span = graded_ideal_span(gens.ring, lower, m)
        fills = _fills_kernel(span, split)
        assert fills == smith_relations.membership_fills_kernel(span, split.kernel), m
        assert fills == (m not in pres.relation_degrees()), m
        decided += 1
    assert decided


# (type, K, degree bound or None for lmax + 1)
SPLIT_TABLES = [("F4", {1}, 15), ("E6", {2}, 21), ("B3", {1, 2, 3}, None), ("D4", {1, 2, 3, 4}, 8)]


@pytest.mark.parametrize("name,K,up_to", SPLIT_TABLES, ids=["F4-P1", "E6-P2", "B3-T", "D4-T"])
def test_relation_kernel_splits_the_monomials(name, K, up_to):
    # kernel rows over complement rows form a unimodular b x b matrix, and
    # the complement maps onto the unit vectors of the degree's classes
    table, gens, up_to = _presented(name, K, up_to)
    for m in range(up_to + 1):
        split = relation_kernel(table, gens, m)
        exps, matrix = split.bundle.exponents, split.bundle.matrix
        beta = table.beta(m)
        kernel_rows = [[p.terms.get(e, 0) for e in exps] for p in split.kernel]
        assert len(kernel_rows) + len(split.complement) == len(exps), m
        assert abs(determinant(kernel_rows + split.complement)) == 1, m
        image = [
            [sum(c * row[j] for c, row in zip(comp, matrix)) for j in range(beta)]
            for comp in split.complement
        ]
        assert image == [[int(i == j) for j in range(beta)] for i in range(beta)], m


def test_minimal_relations_rejects_a_relation_that_does_not_vanish(
    monkeypatch, capsys, f4_p1, f4_gens
):
    # the degree-3 structure matrix is patched to read w1^3 = 3*y3, so the
    # kept relation w1^3 - 3*y3 is false and its multiples by w1 leave the
    # true degree-4 kernel
    real = structure_matrix

    def corrupt(table, gens, m):
        bundle = real(table, gens, m)
        if m == 3:
            bundle.matrix[0][0] += 1
        return bundle

    monkeypatch.setattr("schubert.cohomology.structure_matrix", corrupt)
    message = "a multiple of a kept relation does not vanish in degree 4"
    with pytest.raises(ValueError, match=f"^{message}$"):
        minimal_relations(f4_p1, f4_gens, 4)
    assert main(["presentation", "F4", "--K", "1", "--degree", "4"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"domain error: {message}\n")


def test_vanishing_check_survives_optimize(subprocess_env):
    code = (
        "import sys\n"
        "assert False\n"  # stripped under -O, so this line proves -O is on
        "import schubert.cohomology as coh\n"
        "from schubert.cli import main\n"
        "real = coh.structure_matrix\n"
        "def corrupt(table, gens, m):\n"
        "    bundle = real(table, gens, m)\n"
        "    if m == 3:\n"
        "        bundle.matrix[0][0] += 1\n"
        "    return bundle\n"
        "coh.structure_matrix = corrupt\n"
        "sys.exit(main(['presentation', 'F4', '--K', '1', '--degree', '4']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=subprocess_env
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    message = "a multiple of a kept relation does not vanish in degree 4"
    assert proc.stderr == f"domain error: {message}\n"


@pytest.mark.parametrize(
    "scales,fresh",
    [((2, 2, 2, 2), 4), ((2, 3, 1, 1), 1)],
    ids=["twice-the-kernel", "Z/2+Z/3"],
)
def test_full_rank_span_of_index_above_one_takes_the_smith_path(
    monkeypatch, f4_p1, f4_gens, scales, fresh
):
    # In degree 7 of F4/P1 the ideal of the lower relations fills the
    # kernel (rank 4), so no relation is fresh there.  Replacing that span
    # by one of full rank but index 2^4 or 6 must not take the early exit:
    # the Smith step returns a minimal generating set of K/S.
    m = 7
    kern = relation_kernel(f4_p1, f4_gens, m).kernel
    assert len(kern) == len(scales)
    scaled = SparseIntLattice(
        {e: s * c for e, c in p.terms.items()} for s, p in zip(scales, kern)
    )
    assert scaled.rank == len(kern)
    real = graded_ideal_span

    def fake(ring, relations, d):
        return scaled.copy() if d == m else real(ring, relations, d)

    # the complement test and the membership oracle both see S != K
    split = relation_kernel(f4_p1, f4_gens, m)
    assert not _fills_kernel(scaled, split)
    assert not smith_relations.membership_fills_kernel(scaled, kern)
    monkeypatch.setattr("schubert.cohomology.graded_ideal_span", fake)
    monkeypatch.setattr(smith_relations, "graded_ideal_span", fake)
    pres = minimal_relations(f4_p1, f4_gens, m)
    oracle = smith_relations.always_smith_relations(f4_p1, f4_gens, m)
    assert [str(r) for r in pres.relations] == [str(r) for r in oracle.relations]
    assert pres.relation_degrees() == (3, 6) + (7,) * fresh


def test_hilbert_consistency():
    # b(m) monomials minus the rank of the relation ideal in degree m is
    # the number of Schubert classes of level m, in every degree
    cases = [("F4", {1}, 12), ("E6", {2}, 21), ("B3", {1, 2, 3}, None), ("G2", {1, 2}, None)]
    for name, K, up_to in cases:
        table, gens, up_to = _presented(name, K, up_to)
        pres = minimal_relations(table, gens, up_to)
        for m in range(0, up_to + 1):
            b = len(monomial_exponents(gens.ring, m))
            span = graded_ideal_span(gens.ring, pres.relations, m)
            assert b - span.rank == table.beta(m), (name, m)


def test_presentation_export(capsys, f4_p1, f4_gens):
    # the CLI's JSON is the one export format of a presentation
    pres = minimal_relations(f4_p1, f4_gens, 8)
    assert main(["presentation", "F4", "--K", "1", "--degree", "8"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["generators"][0] == {"name": "w1", "degree": 2, "word": [1]}
    assert [(g["name"], tuple(g["word"])) for g in obj["generators"]] == [
        (g.name, g.word) for g in pres.generators
    ]
    assert obj["relations"] == [str(r) for r in pres.relations]
    assert obj["relation_degrees"] == list(pres.relation_degrees())
    assert "relations" in pres.text()


# -- Giambelli polynomials ---------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_giambelli_delta_property(f4_p1, f4_gens, m):
    polys = giambelli(f4_p1, f4_gens, m)
    assert len(polys) == f4_p1.beta(m)
    for j, poly in enumerate(polys, start=1):
        assert expand_polynomial(f4_p1, poly, data.F4_WORDS) == {(m, j): 1}


def test_giambelli_needs_surjectivity(f4_p1):
    gens = data.generator_set(f4_p1, [("w1", (1,))])
    with pytest.raises(ValueError, match="degree 3"):
        giambelli(f4_p1, gens, 3)


# (type, K, last degree or None for the top level)
GIAMBELLI_TABLES = [
    ("F4", {1}, None), ("E6", {2}, None), ("E7", {2}, 12), ("B3", {1, 2, 3}, None),
    ("D4", {2}, None), ("G2", {1, 2}, None),
]


@pytest.mark.parametrize(
    "lie, K, up_to", GIAMBELLI_TABLES,
    ids=[f"{lie}/{'T' if len(K) > 1 else f'P{min(K)}'}" for lie, K, _ in GIAMBELLI_TABLES],
)
def test_giambelli_differs_from_smith_route_by_relations(lie, K, up_to):
    # both routes give preimages of the unit classes, so they differ by
    # elements of the kernel lattice that relation_kernel returns a basis of
    table = enumerate_cosets(LieType.parse(lie), K)
    up_to = table.lmax if up_to is None else up_to
    gens = minimal_generators(table, up_to)
    words = {g.name: g.word for g in gens}
    for m in range(up_to + 1):
        polys = giambelli(table, gens, m)
        oracle = smith_giambelli(table, gens, m)
        assert len(polys) == len(oracle) == table.beta(m), m
        kernel = SparseIntLattice(p.terms for p in relation_kernel(table, gens, m).kernel)
        for j, (poly, other) in enumerate(zip(polys, oracle), start=1):
            assert expand_polynomial(table, poly, words) == {(m, j): 1}, (m, j)
            assert expand_polynomial(table, other, words) == {(m, j): 1}, (m, j)
            assert (poly - other).terms in kernel, (m, j)


def test_giambelli_makes_no_smith_form(monkeypatch):
    calls = []
    smith = intlinalg.smith_with_transforms

    def counted(m):
        calls.append(m)
        return smith(m)

    for module in (intlinalg, cohomology):
        monkeypatch.setattr(module, "smith_with_transforms", counted)
    for lie, k in [("F4", 1), ("E6", 2)]:
        table = enumerate_cosets(LieType.parse(lie), {k})
        gens = minimal_generators(table)
        for m in range(table.lmax + 2):
            giambelli(table, gens, m)
    assert calls == []


def test_degrees_without_monomials_keep_their_edge_cases(f4_p1):
    # the point A2/G has no generators: degrees above its one class have
    # no monomials and no classes, so nothing is kernel or complement
    point = enumerate_cosets(A2, set())
    gens = minimal_generators(point)
    assert len(gens) == 0 and point.lmax == 0
    for m in (1, 2):
        split = relation_kernel(point, gens, m)
        assert (split.kernel, split.complement) == ([], []), m
        assert giambelli(point, gens, m) == []
    assert [str(p) for p in giambelli(point, gens, 0)] == ["1"]
    # no monomials but classes: the generators do not span
    with pytest.raises(ValueError, match=r"^generators do not span degree 1: cokernel Z$"):
        relation_kernel(f4_p1, data.generator_set(f4_p1, []), 1)
    gens = minimal_generators(f4_p1)
    with pytest.raises(ValueError, match="nonnegative"):
        giambelli(f4_p1, gens, -1)
    assert giambelli(f4_p1, gens, f4_p1.lmax + 1) == []


def test_rewrite_invariant_as_glue(f4_p1, f4_gens):
    c4 = weyl_orbit_invariants(F4, {1}, 4)[3]
    vec = invariant_on_parabolic(f4_p1, c4)
    g4 = rewrite_in_generators(f4_p1, f4_gens, vec)
    assert expand_polynomial(f4_p1, g4, data.F4_WORDS) == vec
    expected = parse_polynomial(f4_gens.ring, data.F4_GLUE[4])
    relations = minimal_relations(f4_p1, f4_gens, 4).relations
    span = graded_ideal_span(f4_gens.ring, relations, 4)
    assert span.reduce(g4.terms) == span.reduce(expected.terms)


# -- Gysin analysis ----------------------------------------------------------


def test_gysin_f4_spot_checks(f4_p1):
    table = gysin_analysis(f4_p1, 1, 16)
    assert table.group(0) == AbelianGroupStructure(1)
    assert table.group(2).is_trivial()
    assert table.group(6) == AbelianGroupStructure(0, (2,))
    assert table.group(8) == AbelianGroupStructure(1)
    assert table.group(12) == AbelianGroupStructure(0, (4,))
    assert table.group(23) == AbelianGroupStructure(1)
    (row,) = table.odd_kernels[23]
    assert row in ([2, -1], [-2, 1])


def test_gysin_euler_consistency(f4_p1):
    table = gysin_analysis(f4_p1, 1, 16)
    for r, mat in table.matrices.items():
        odd = table.group(2 * r - 1).free_rank
        even = table.group(2 * r).free_rank
        assert odd - even == f4_p1.beta(r - 1) - f4_p1.beta(r)


# every Gysin table the suite builds, as (type, node), plus the torsion
# tables G2/P2, C3/P3 and D4/P2
GYSIN_TORSION_TABLES = [("G2", 2), ("C3", 3), ("D4", 2)]
GYSIN_TABLES = [
    ("A2", 1), ("A2", 2), ("B3", 1), ("B3", 2), ("B3", 3), ("F4", 1), ("F4", 2),
    ("F4", 3), ("F4", 4), ("E6", 2), ("E7", 2), *GYSIN_TORSION_TABLES,
]


@pytest.mark.parametrize("lie, node", GYSIN_TABLES, ids=[f"{a}/P{b}" for a, b in GYSIN_TABLES])
def test_gysin_groups_match_smith_oracle(lie, node):
    table = enumerate_cosets(LieType.parse(lie), {node})
    gy = gysin_analysis(table, node, table.lmax + 1)
    assert sorted(gy.matrices) == list(range(1, table.lmax + 2))
    for r, rows in gy.matrices.items():
        assert gy.even[2 * r] == smith_cokernel(rows), r
        assert gy.odd_kernels[2 * r - 1] == kernel_basis(rows), r
        assert gy.odd[2 * r - 1] == AbelianGroupStructure(len(gy.odd_kernels[2 * r - 1]))
    if (lie, node) in GYSIN_TORSION_TABLES:
        assert any(g.torsion for g in gy.even.values())


def _count_factorisations(monkeypatch):
    """Row counts of each Hermite and Smith form computed from here on."""
    seen = {"hermite": [], "smith": []}

    def counted(name, f):
        def wrapper(m):
            seen[name].append(len(m))
            return f(m)

        return wrapper

    hermite = counted("hermite", intlinalg.hermite_with_transform)
    for module in (intlinalg, cohomology):
        monkeypatch.setattr(module, "hermite_with_transform", hermite)
    monkeypatch.setattr(intlinalg, "smith_with_transforms", counted("smith", intlinalg.smith_with_transforms))
    return seen


def test_gysin_factors_each_level_once(monkeypatch):
    # one Hermite form per level; a Smith form only for the rows whose
    # pivot is not 1, which on E7/P2 are never more than 3
    table = enumerate_cosets(LieType.parse("E7"), {2})
    seen = _count_factorisations(monkeypatch)
    gysin_analysis(table, 2, 20)
    assert len(seen["hermite"]) == 20
    assert len(seen["smith"]) == 13 and max(seen["smith"]) <= 3
    for lie, node in [("A3", 2), ("B3", 3)]:  # no pivot other than 1
        table = enumerate_cosets(LieType.parse(lie), {node})
        seen = _count_factorisations(monkeypatch)
        gysin_analysis(table, node, table.lmax + 1)
        assert len(seen["hermite"]) == table.lmax + 1 and seen["smith"] == [], lie


def test_gysin_requires_matching_table(f4_full):
    with pytest.raises(ValueError, match="expected K"):
        gysin_analysis(f4_full, 1, 4)


# -- Weyl orbits and invariants ----------------------------------------------


def test_weight_orbit_f4_verbatim():
    assert weight_orbit(F4, {1}, 4) == data.F4_ORBIT


def test_weight_orbit_e6_verbatim():
    assert weight_orbit(E6, {2}, 6) == data.E6_ORBIT


def test_weight_orbit_limit_guard(monkeypatch):
    monkeypatch.setattr(cohomology, "ORBIT_LIMIT", 3)
    with pytest.raises(ValueError, match="limit 3"):
        weight_orbit(F4, {1}, 4)


def test_elementary_symmetric_small():
    ring = weight_ring(2)
    e1, e2 = elementary_symmetric(ring, [(1, 0), (0, 1)])
    assert e1 == parse_polynomial(ring, "w1 + w2")
    assert e2 == parse_polynomial(ring, "w1*w2")


def test_symplectic_odd_invariants_vanish():
    ring = weight_ring(3)
    es = elementary_symmetric(ring, symplectic_forms(3))
    for r in (1, 3, 5):
        assert es[r - 1].is_zero()
    assert not es[1].is_zero() and not es[3].is_zero() and not es[5].is_zero()


def test_orbit_restriction_is_symplectic():
    # Killing w1 in the F4 orbit leaves the rank-3 symplectic set under
    # the reversed-chain dictionary w1->w4, w2->w3, w3->w2.
    restricted = sorted(v[1:] for v in weight_orbit(F4, {1}, 4))
    mapped = sorted((c, b, a) for (a, b, c) in symplectic_forms(3))
    assert restricted == mapped


def test_orbit_restriction_is_special_unitary():
    # Killing w2 in the E6 orbit leaves the SU(6) set under the chain
    # dictionary 1->6, 2->5, 3->4, 4->3, 5->1.
    restricted = sorted((v[0], v[2], v[3], v[4], v[5]) for v in weight_orbit(E6, {2}, 6))
    mapped = sorted((a5, a4, a3, a2, a1) for (a1, a2, a3, a4, a5) in special_unitary_forms(6))
    assert restricted == mapped


# -- expansion helpers -------------------------------------------------------


def test_expand_polynomial_unknown_word(f4_p1, f4_gens):
    poly = parse_polynomial(f4_gens.ring, "y3")
    # reduced and of length 3, but it ends in 3, not in the parabolic node 1
    with pytest.raises(ValueError, match=r"^generator y3: word \[1, 2, 3\] is not a minimal rep"):
        expand_polynomial(f4_p1, poly, {"y3": (1, 2, 3)})


def test_expand_polynomial_names_a_variable_without_a_word(f4_p1, f4_gens):
    poly = parse_polynomial(f4_gens.ring, "w1*y3")
    with pytest.raises(ValueError, match="^variable y3 has no word$"):
        expand_polynomial(f4_p1, poly, {"w1": (1,)})


def test_expand_polynomial_rejects_a_word_of_another_degree():
    # w2 has degree 1, so the class of [2,1] would make w1 + w2 inhomogeneous
    table = enumerate_cosets(A2, {1, 2})
    ring = PolyRing(("w1", "w2"), (1, 1))
    poly = parse_polynomial(ring, "w1 + w2")
    assert expand_polynomial(table, poly, {"w1": (1,), "w2": (2,)}) == {(1, 1): 1, (1, 2): 1}
    with pytest.raises(ValueError, match=r"^variable w2 of degree 1: word \[2, 1\] has length 2$"):
        expand_polynomial(table, poly, {"w1": (1,), "w2": (2, 1)})
    # a word of the variable's length that is not reduced
    y = parse_polynomial(PolyRing(("y",), (2,)), "y")
    with pytest.raises(ValueError, match=r"^generator y: word \[1, 1\] is not reduced$"):
        expand_polynomial(table, y, {"y": (1, 1)})


def test_invariant_on_parabolic_c2(f4_p1):
    c2 = weyl_orbit_invariants(F4, {1}, 4)[1]
    vec = invariant_on_parabolic(f4_p1, c2)
    assert vec == {(2, 1): 4}  # c2 = 4 * w1^2 and w1^2 is the level-2 class


# -- full-flag assembly ------------------------------------------------------


def _f4_assembly_inputs():
    invariants = weyl_orbit_invariants(F4, {1}, 4)
    fiber_ring = PolyRing(("w2", "w3", "w4"), (1, 1, 1))
    fiber_rels = tuple(
        invariants[r - 1].substitute({"w1": 0}, fiber_ring) for r in (2, 4, 6)
    )
    fiber = Presentation(
        tuple(Generator(f"w{i}", (i,)) for i in (2, 3, 4)), fiber_rels
    )
    base_gens = tuple(
        Generator(name, word) for name, word in sorted(data.F4_WORDS.items())
    )
    base_ring = PolyRing(
        tuple(g.name for g in base_gens), tuple(g.half_degree for g in base_gens)
    )
    base = Presentation(
        base_gens,
        tuple(parse_polynomial(base_ring, text) for text in data.F4_BASE_RELATIONS),
    )
    glue = [
        (invariants[r - 1], parse_polynomial(base_ring, data.F4_GLUE[r]))
        for r in (2, 4, 6)
    ]
    return fiber, base, glue


def test_assemble_trivial_fiber(f4_p1, f4_gens):
    base = minimal_relations(f4_p1, f4_gens, 12)
    assert assemble_full_flag(Presentation((), ()), base, []) is base


def test_assemble_f4_full_flag(f4_full):
    fiber, base, glue = _f4_assembly_inputs()
    pres = assemble_full_flag(fiber, base, glue)
    assert [g.name for g in pres.generators] == ["w1", "w2", "w3", "w4", "y3", "y4"]
    assert pres.relation_degrees() == (2, 3, 4, 6, 8, 12)
    words = dict(data.F4_WORDS)
    words.update({f"w{i}": (i,) for i in (2, 3, 4)})
    for rel in pres.relations:
        if rel.degree() <= 4:
            assert not expand_polynomial(f4_full, rel, words)


def test_assemble_rejects_unmatched_glue():
    fiber, base, glue = _f4_assembly_inputs()
    bad = list(glue)
    noise = parse_polynomial(weight_ring(4), "w2^4")  # survives killing the base
    bad[1] = (bad[1][0] + noise, bad[1][1])
    with pytest.raises(ValueError, match="restrict"):
        assemble_full_flag(fiber, base, bad)


def test_assemble_rejects_uncovered_fiber_relation():
    fiber, base, glue = _f4_assembly_inputs()
    with pytest.raises(ValueError, match="not covered"):
        assemble_full_flag(fiber, base, glue[:2])


# -- even spin families ------------------------------------------------------


def test_spin_forms_head_choice():
    assert spin_even_forms(4)[0] == (1, 0, 0, 0)


def test_spin_relations_shape():
    ring, rels, words = spin_relations(4)
    assert ring.names == ("w1", "w2", "w3", "w4", "y2", "y3")
    assert len(rels) == 6  # three doubling, one even reduction, two quadratic
    assert words["y2"] == (2, 3)
    assert words["y3"] == (1, 2, 3)


def test_spin_head_reading_changes_degree_one():
    _, rels, _ = spin_relations(4)
    assert rels[0].is_zero()  # 2*w3 - c1 telescopes away


def test_spin_relations_reduced_shape():
    ring, rels, words = spin_relations_reduced(4)
    assert ring.names == ("w1", "w2", "w3", "w4", "y3")
    assert [r.degree() for r in rels if not r.is_zero()] == [2, 3, 4, 6]
    assert words["y3"] == (1, 2, 3)
