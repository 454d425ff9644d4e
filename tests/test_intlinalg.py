"""Exact integer linear algebra tests.

Transforms are checked by direct re-multiplication, kernels by saturation
(Smith invariants of the kernel matrix must all be 1), and the lattice by
comparison with brute-force integer span enumeration on small cases.
Where SymPy is installed, the Smith invariants and the Hermite row lattice
are compared with SymPy's normal forms.
"""

import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from schubert import intlinalg
from schubert.cartan import LieType
from schubert import cohomology
from schubert.cohomology import (
    gysin_analysis,
    minimal_generators,
    minimal_relations,
    structure_matrix,
)
from schubert.intlinalg import (
    AbelianGroupStructure,
    _mat_mul,
    cokernel_structure,
    determinant,
    diagonalize_with_unit_minor,
    hermite_with_transform,
    kernel_basis,
    smith_with_transforms,
    solve_left,
    unimodular_inverse,
)
from schubert.weyl import enumerate_cosets

from dense_hermite import dense_hermite
from dense_lattice import IntLattice
from dense_smith import dense_smith
from fraction_determinant import fraction_determinant
from smith_cokernel import smith_cokernel


def mat_mul(A, B):
    cols = len(B[0]) if B else 0
    return [[sum(a * B[k][j] for k, a in enumerate(row)) for j in range(cols)] for row in A]


matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


# -- determinant ------------------------------------------------------------


def test_determinant_basics():
    assert determinant([[5]]) == 5
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert determinant([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


def _square_cases():
    """Seeded random square matrices of size 0..9: dense, sparse and singular."""
    rng = random.Random(1968)
    for n in range(10):
        for _ in range(12):
            bound = rng.choice([1, 3, 9, 10**6])
            m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.4:
                m = [[x if rng.random() < 0.3 else 0 for x in row] for row in m]
            if n > 1 and rng.random() < 0.3:  # one row a multiple of another
                i, j = rng.sample(range(n), 2)
                k = rng.randint(-3, 3)
                m[i] = [k * y for y in m[j]]
            yield m


def test_determinant_matches_fraction_elimination():
    cases = list(_square_cases())
    assert sum(fraction_determinant(m) == 0 for m in cases) >= 20  # singular ones too
    for m in cases:
        assert determinant(m) == fraction_determinant(m), m


def test_determinant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _square_cases():
        assert determinant(m) == sympy.Matrix(m).det(), m


def test_determinant_division_check_survives_optimize(subprocess_env):
    # a non-integer entry leaves the second step's division by the first
    # pivot (2) inexact: 2/3 is not a multiple of 2
    code = (
        "from fractions import Fraction\n"
        "from schubert.intlinalg import determinant\n"
        "assert False\n"  # stripped under -O, so this line proves -O is on
        "determinant([[2, 1, 0], [1, 1, 0], [0, 0, Fraction(1, 3)]])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert proc.returncode == 1
    assert "ArithmeticError: inexact division in Bareiss elimination" in proc.stderr


def test_determinant_multiplicative():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


# -- Hermite form -----------------------------------------------------------


def test_hermite_simple():
    h, u = hermite_with_transform([[2, 4], [1, 3]])
    assert mat_mul(u, [[2, 4], [1, 3]]) == h
    assert h == [[1, 3], [0, 2]] or h[0][0] == 1
    assert abs(determinant(u)) == 1


def test_hermite_echelon_shape():
    rng = random.Random(3)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
        h, u = hermite_with_transform(m)
        assert mat_mul(u, m) == h
        pivots = []
        for row in h:
            nz = [c for c, x in enumerate(row) if x]
            if nz:
                assert not pivots or nz[0] > pivots[-1], "pivots must step right"
                assert row[nz[0]] > 0
                pivots.append(nz[0])
            else:
                pivots.append(cols)  # zero rows sink to the bottom
        # entries above each pivot are reduced
        for r, row in enumerate(h):
            nz = [c for c, x in enumerate(row) if x]
            if nz:
                p = nz[0]
                for rr in range(r):
                    assert 0 <= h[rr][p] < row[p]


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_hermite_transform_properties(m):
    h, u = hermite_with_transform(m)
    assert mat_mul(u, m) == h
    assert abs(determinant(u)) == 1


def triple_loop(A, B):
    """A * B entry by entry; an empty B has no columns, as in _mat_mul."""
    n = len(B[0]) if B else 0
    out = [[0] * n for _ in A]
    for i in range(len(A)):
        for j in range(n):
            for k in range(len(B)):
                out[i][j] += A[i][k] * B[k][j]
    return out


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_mat_mul_matches_triple_loop(m, k, n, data):
    # every shape from 0 x 0 up, zero-row and zero-column factors included
    entry = st.integers(-(2**70), 2**70) | st.integers(-3, 3)
    A = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    B = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    assert _mat_mul(A, B) == triple_loop(A, B)
    assert _mat_mul([tuple(r) for r in A], tuple(map(tuple, B))) == triple_loop(A, B)


def test_mat_mul_edge_shapes_and_mismatches():
    assert _mat_mul([], []) == []
    assert _mat_mul([[], []], []) == [[], []]
    assert _mat_mul([[1, 2]], [[], []]) == [[]]
    assert _mat_mul([[1], [2]], [[3, 4]]) == [[3, 4], [6, 8]]
    for A, B in [
        ([[1, 2]], [[1]]),  # row of A longer than B
        ([[1]], [[1], [2]]),  # row of A shorter than B
        ([[1, 2]], [[1, 2], [3]]),  # ragged B
        ([[1]], []),
    ]:
        with pytest.raises(ValueError):
            _mat_mul(A, B)


# (A, B, the n that `_rows_times` is called with): n = cols(B) on the direct
# route, n = rows(A) when the product is taken as (B^T * A^T)^T
DENSE_U = [[1, -2, 3, 0, 5], [2, 1, 1, 4, -1], [0, 3, -2, 1, 1], [7, 1, 0, 2, 2],
           [1, 1, 1, 1, 1], [-3, 2, 5, 1, 0]]
SPARSE_M = [[0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 2, 0, 0, 0], [0, 0, 0, 0, 0, 0, -1],
            [1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 3, 0, 0]]
ROUTE_CASES = {
    "dense U times sparse M": (DENSE_U, SPARSE_M, 6),
    "sparse times dense": ([[0, 0, 1, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0, 0]],
                           [[1, 2, 3]] * 7, 3),
    "tuple rows, transposed route": (tuple(map(tuple, DENSE_U)),
                                     tuple(map(tuple, SPARSE_M)), 6),
    "tuple rows, direct route": ([(0, 2, 0), (0, 0, 0)], ((4, 5, 6, 7),) * 3, 4),
    "zero left factor": ([[0] * 5] * 6, SPARSE_M, 7),  # 0 < 0 fails: direct
    "zero right factor": (DENSE_U, [[0] * 7] * 5, 6),  # no step at all
}


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_mat_mul_routes(monkeypatch, case):
    A, B, n = ROUTE_CASES[case]
    widths = []
    kernel = intlinalg._rows_times

    def spy(left, right, width):
        widths.append(width)
        return kernel(left, right, width)

    monkeypatch.setattr(intlinalg, "_rows_times", spy)
    product = _mat_mul(A, B)
    assert widths == [n]
    assert product == triple_loop(A, B)
    assert all(type(row) is list for row in product)


def test_postcondition_check_survives_optimize(subprocess_env):
    code = (
        "from schubert.intlinalg import _check_transform_product\n"
        "assert False\n"  # stripped under -O, so this line proves -O is on
        "_check_transform_product([[2]], [[1]], [[1]])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert proc.returncode == 1
    assert "ArithmeticError: transform postcondition violated" in proc.stderr


def test_hermite_deterministic():
    m = [[6, 2], [4, 8], [2, 2]]
    assert hermite_with_transform(m) == hermite_with_transform([list(r) for r in m])


@st.composite
def oracle_inputs(draw):
    """0..8 x 0..8, entries -6..6 with up to three near +-2^70, zeroed rows and columns."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    m = draw(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    if rows and cols:
        big = st.sampled_from([2**70, -(2**70)]) | st.integers(-(2**70), 2**70)
        for _ in range(draw(st.integers(0, 3))):
            m[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(big)
        zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows))
        zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
        m = [
            [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(m)
        ]
    return m


@given(oracle_inputs())
@example([])
@example([[], [], []])  # rows without columns: U is the identity
@example([[0, 0, 0], [0, 0, 0]])
@example([[1, -2], [3, 4], [0, 0], [-5, 6], [2**70, 1], [6, 0], [-6, 5], [1, 1]])  # tall
@example([[2, 0, -4, 6, 2**70, 0, 1, -3], [4, 0, 2, -6, 5, 0, -(2**70), 3]])  # wide
@settings(max_examples=300, deadline=None)
def test_hermite_matches_dense_oracle(m):
    # the augmented-row elimination performs the oracle's operations in its
    # order, so H and U agree entry for entry, not just up to the lattice
    assert hermite_with_transform(m) == dense_hermite(m)


def _library_matrices(e6_p2, e7_p2):
    """Every Gysin matrix of E7/P2 through 20 and E6/P4 through 30, and the
    structure matrices of E6/P2 through 21."""
    e6_p4 = enumerate_cosets(LieType.parse("E6"), {4})
    for table, node, up_to in [(e7_p2, 2, 20), (e6_p4, 4, 30)]:
        yield from gysin_analysis(table, node, up_to).matrices.values()
    gens = minimal_generators(e6_p2)
    for m in range(1, 22):
        yield structure_matrix(e6_p2, gens, m).matrix


def test_hermite_matches_dense_oracle_on_library_matrices(e6_p2, e7_p2):
    count = 0
    for m in _library_matrices(e6_p2, e7_p2):
        assert hermite_with_transform(m) == dense_hermite(m), m
        count += 1
    assert count == 20 + 30 + 21


RAGGED = {"short last row": [[1, 2], [3]], "long last row": [[1], [2, 3]]}
RAGGED_ENTRY_POINTS = {
    "hermite_with_transform": hermite_with_transform,
    "smith_with_transforms": smith_with_transforms,
    "kernel_basis": kernel_basis,
    "cokernel_structure": cokernel_structure,
    "solve_left": lambda m: solve_left(m, []),
    "diagonalize_with_unit_minor": diagonalize_with_unit_minor,
}


@pytest.mark.parametrize("shape", RAGGED)
@pytest.mark.parametrize("name", RAGGED_ENTRY_POINTS)
def test_ragged_matrix_fails_at_once(name, shape):
    m = RAGGED[shape]
    with pytest.raises(ValueError, match=f"^ragged matrix: row 1 has {len(m[1])} entries, "
                       f"row 0 has {len(m[0])}$"):
        RAGGED_ENTRY_POINTS[name](m)


@pytest.mark.parametrize("shape", RAGGED)
def test_ragged_square_checks_fail(shape):
    for f in (determinant, unimodular_inverse):
        with pytest.raises(ValueError, match="non-square"):
            f(RAGGED[shape])


# -- kernel -----------------------------------------------------------------


def test_kernel_column_example():
    # the left kernel of the column (2, 1)^T is spanned by (1, -2)
    basis = kernel_basis([[2], [1]])
    assert len(basis) == 1
    v = basis[0]
    if v[0] < 0:
        v = [-x for x in v]
    assert v == [1, -2]


def test_kernel_of_injective_map_is_empty():
    assert kernel_basis([[2, 0], [0, 3]]) == []
    assert kernel_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []


def test_kernel_known_rank():
    # rows 2 and 3 are multiples of row 1
    m = [[1, 2], [2, 4], [3, 6]]
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in mat_mul([v], m)[0])


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_kernel_annihilates_and_is_saturated(m):
    basis = kernel_basis(m)
    for v in basis:
        assert all(x == 0 for x in mat_mul([v], m)[0])
    if basis:
        # saturation: the kernel lattice is a direct summand of Z^rows,
        # i.e. all Smith invariants of the kernel matrix are 1
        _, d, _ = smith_with_transforms(basis)
        k = min(len(d), len(d[0]))
        invariants = [d[i][i] for i in range(k) if d[i][i]]
        assert invariants == [1] * len(basis)
    # completeness: rank-nullity over Q
    _, dm, _ = smith_with_transforms(m)
    rank = sum(1 for i in range(min(len(dm), len(dm[0]))) if dm[i][i])
    assert len(basis) == len(m) - rank


# -- Smith form -------------------------------------------------------------


def test_smith_examples():
    p, d, q = smith_with_transforms([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]
    p, d, q = smith_with_transforms([[2, 4], [4, 8]])
    assert d[0][0] == 2 and d[1][1] == 0
    p, d, q = smith_with_transforms([[0]])
    assert d == [[0]]


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_smith_properties(m):
    p, d, q = smith_with_transforms(m)
    assert mat_mul(mat_mul(p, m), q) == d
    assert abs(determinant(p)) == 1
    assert abs(determinant(q)) == 1
    k = min(len(d), len(d[0]))
    diag = [d[i][i] for i in range(k)]
    for r in range(len(d)):
        for c in range(len(d[0])):
            if r != c:
                assert d[r][c] == 0
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert a > 0 and b % a == 0


@given(oracle_inputs())
@example([])
@example([[], [], []])  # rows without columns: P is the identity, Q is empty
@example([[0, 0, 0], [0, 0, 0]])
@example([[1, -2], [3, 4], [0, 0], [-5, 6], [2**70, 1], [6, 0], [-6, 5], [1, 1]])  # tall
@example([[2, 0, -4, 6, 2**70, 0, 1, -3], [4, 0, 2, -6, 5, 0, -(2**70), 3]])  # wide
@settings(max_examples=300, deadline=None)
def test_smith_matches_dense_oracle(m):
    # the block-matrix elimination performs the oracle's operations in its
    # order, so P, D and Q agree entry for entry
    assert smith_with_transforms(m) == dense_smith(m)


def test_smith_matches_dense_oracle_on_library_calls(e6_p2, e7_p2, monkeypatch):
    """Every Smith form of the E6/P2 presentation, the E7/P2 presentation
    through 12 and the E6/P4 Gysin table through 31."""
    calls = []

    def recorded(m):
        calls.append(m)
        return smith_with_transforms(m)

    for module in (intlinalg, cohomology):
        monkeypatch.setattr(module, "smith_with_transforms", recorded)
    counts = []
    for table, up_to in [(e6_p2, e6_p2.lmax), (e7_p2, 12)]:
        minimal_relations(table, minimal_generators(table, up_to), up_to)
        counts.append(len(calls) - sum(counts))
    gysin_analysis(enumerate_cosets(LieType.parse("E6"), {4}), 4, 31)
    counts.append(len(calls) - sum(counts))
    assert counts == [3, 4, 19]
    for m in calls:
        assert smith_with_transforms(m) == dense_smith(m), m

def _sympy_cases(e6_p2):
    """Seeded random integer matrices, then the E6/P2 structure matrices."""
    rng = random.Random(20191)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        yield [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    gens = minimal_generators(e6_p2)
    for m in range(1, e6_p2.lmax + 1):
        yield structure_matrix(e6_p2, gens, m).matrix


def test_normal_forms_agree_with_sympy(e6_p2):
    # SymPy's Hermite form is column-style, so the row lattice of M is the
    # column lattice of M^T; lattices are compared, not matrices
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

    for m in _sympy_cases(e6_p2):
        cols = len(m[0])
        _, d, _ = smith_with_transforms(m)
        ours = [d[i][i] for i in range(min(len(m), cols)) if d[i][i]]
        snf = smith_normal_form(sympy.Matrix(m))
        theirs = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i]]
        assert ours == theirs, m
        h, _ = hermite_with_transform(m)
        hnf = hermite_normal_form(sympy.Matrix(m).T).T
        theirs_rows = [[int(x) for x in hnf.row(i)] for i in range(hnf.rows)]
        assert (
            IntLattice(cols, [row for row in h if any(row)]).canonical_basis()
            == IntLattice(cols, theirs_rows).canonical_basis()
        ), m


# -- cokernel ---------------------------------------------------------------


def test_cokernel_examples():
    assert cokernel_structure([[2]]) == AbelianGroupStructure(0, (2,))
    assert cokernel_structure([[1, 0]]) == AbelianGroupStructure(1)
    assert cokernel_structure([[2, 0], [0, 3]]) == AbelianGroupStructure(0, (6,))
    assert cokernel_structure([[1, 0], [0, 1]]).is_trivial()
    assert cokernel_structure([[0, 0]]) == AbelianGroupStructure(2)
    assert cokernel_structure([[4], [6]]) == AbelianGroupStructure(0, (2,))


def _unimodular(draw, n):
    """A product of row swaps, sign flips and row additions on the n x n identity."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        elif draw(st.booleans()):
            m[i], m[j] = m[j], m[i]
        else:
            k = draw(st.integers(-3, 3))
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return m


@st.composite
def cokernel_inputs(draw):
    """Matrices of 1..6 x 1..6, among them 1 x n, n x 1, zero rows and columns.

    Half are plain entries in -6..6; the others are U * D * V with U, V
    unimodular and D diagonal, so torsion and non-unit pivots occur.
    """
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["any", "one row", "one column"]))
    rows, cols = (1 if shape == "one row" else rows), (1 if shape == "one column" else cols)
    if draw(st.booleans()):
        m = [[draw(st.integers(-6, 6)) for _ in range(cols)] for _ in range(rows)]
    else:
        diag = [draw(st.sampled_from([0, 1, 1, 2, 3, 4, 6, 12])) for _ in range(min(rows, cols))]
        d = [[diag[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
        m = mat_mul(mat_mul(_unimodular(draw, rows), d), _unimodular(draw, cols))
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    return [
        [0 if r in zero_rows or c in zero_cols else x for c, x in enumerate(row)]
        for r, row in enumerate(m)
    ]


@settings(max_examples=400, deadline=None)
@given(cokernel_inputs())
def test_cokernel_matches_smith_of_the_whole_matrix(m):
    assert cokernel_structure(m) == smith_cokernel(m)


def test_cokernel_inputs_reach_torsion_and_non_unit_pivots():
    # the drawn cases exercise the non-unit block, not only unit pivots
    seen = {"torsion": 0, "free": 0, "unit": 0, "non-unit": 0}

    @seed(20261020)
    @settings(max_examples=200, deadline=None, database=None)
    @given(cokernel_inputs())
    def record(m):
        h, _ = hermite_with_transform(m)
        pivots = [next(x for x in row if x) for row in h if any(row)]
        group = smith_cokernel(m)
        seen["torsion"] += bool(group.torsion)
        seen["free"] += bool(group.free_rank)
        seen["unit"] += 1 in pivots
        seen["non-unit"] += any(p != 1 for p in pivots)

    record()
    assert min(seen.values()) >= 20, seen


def test_group_structure_rendering():
    assert str(AbelianGroupStructure(0)) == "0"
    assert str(AbelianGroupStructure(1)) == "Z"
    assert str(AbelianGroupStructure(2, (2, 4))) == "Z^2 + Z/2 + Z/4"
    assert str(AbelianGroupStructure(0, (3,))) == "Z/3"
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (4, 2))


# -- unit-minor diagonalization ----------------------------------------------


def test_diagonalize_with_unit_minor():
    m = [[1, 0], [0, 1], [3, 5]]
    res = diagonalize_with_unit_minor(m)
    pmq = mat_mul(mat_mul(res.P, m), res.Q)
    assert pmq == res.D
    assert pmq[0][:2] == [1, 0] and pmq[1][:2] == [0, 1]
    assert all(x == 0 for x in pmq[2])


def test_diagonalize_rejects_torsion_and_rank_deficit():
    with pytest.raises(ValueError, match=r"^matrix does not present Z\^1: cokernel Z/2$"):
        diagonalize_with_unit_minor([[2]])
    with pytest.raises(ValueError):
        diagonalize_with_unit_minor([[1, 1], [2, 2]])


@pytest.mark.parametrize(
    "m, coker",
    [([[1, 1], [2, 2]], "Z"), ([[1, 0]], "Z"), ([[2, 0], [0, 3], [0, 0]], "Z/6"),
     ([[1, 0], [0, 2], [0, 4]], "Z/2"), ([[0, 0]], "Z^2")],
    ids=["rank-deficit", "one-row", "torsion", "torsion-below-a-unit", "zero"],
)
def test_diagonalize_names_the_cokernel(m, coker):
    with pytest.raises(ValueError, match=rf"^matrix does not present Z\^2: cokernel {re.escape(coker)}$"):
        diagonalize_with_unit_minor(m)


def test_diagonalize_is_the_hermite_form(e6_p2, monkeypatch):
    # P = U and D = H of the Hermite form, Q = I, and no Smith form is made
    def no_smith(m):
        raise AssertionError("Smith form computed")

    monkeypatch.setattr(intlinalg, "smith_with_transforms", no_smith)
    gens = minimal_generators(e6_p2)
    for deg in range(e6_p2.lmax + 1):
        m = structure_matrix(e6_p2, gens, deg).matrix
        beta = len(m[0])
        res = diagonalize_with_unit_minor(m)
        h, u = hermite_with_transform(m)
        assert (res.P, res.D) == (u, h)
        assert res.Q == [[int(i == j) for j in range(beta)] for i in range(beta)]
        assert mat_mul(res.P[:beta], m) == res.Q


def test_diagonalize_solves_unit_vectors():
    # rows of Q * P_top express each unit vector as an integer row combo
    rng = random.Random(11)
    for _ in range(20):
        rows, cols = rng.randint(2, 5), rng.randint(1, 3)
        if rows < cols:
            rows, cols = cols, rows
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        try:
            res = diagonalize_with_unit_minor(m)
        except ValueError:
            continue
        top = [res.P[i] for i in range(cols)]
        combo = mat_mul(res.Q, top)
        assert mat_mul(combo, m) == [
            [int(i == j) for j in range(cols)] for i in range(cols)
        ]


# -- integer lattices ---------------------------------------------------------


def test_lattice_membership_is_integral():
    lat = IntLattice(2)
    lat.add([2, 0])
    assert [2, 0] in lat
    assert [4, 0] in lat
    assert [1, 0] not in lat  # rational but not integral multiple
    assert [0, 1] not in lat


def test_lattice_gcd_merge():
    lat = IntLattice(2)
    assert lat.add([2, 0])
    assert lat.add([3, 0])  # gcd merge makes the pivot 1
    assert [1, 0] in lat
    assert lat.rank == 1
    assert not lat.add([5, 0])


def test_lattice_growth_and_fullness():
    lat = IntLattice(3)
    assert lat.add([1, 2, 3])
    assert not lat.add([2, 4, 6])
    assert lat.add([0, 1, 1])
    assert lat.rank == 2
    assert not lat.is_full()
    assert lat.add([0, 0, 1])
    assert lat.is_full()
    assert [7, -5, 9] in lat


def test_lattice_reduce():
    lat = IntLattice(2, [[1, 3], [0, 5]])
    v = [4, 7]
    r = lat.reduce(v)
    assert r == [0, 0] or all(0 <= x for x in r)
    diff = [a - b for a, b in zip(v, r)]
    assert diff in lat
    assert lat.reduce(r) == r
    assert lat.reduce([0, 0]) == [0, 0]
    # members reduce to zero
    assert lat.reduce([1, 8]) == [0, 0]


def test_lattice_reduce_is_coset_invariant():
    rng = random.Random(5)
    for _ in range(30):
        lat = IntLattice(3)
        for _ in range(rng.randint(1, 3)):
            lat.add([rng.randint(-6, 6) for _ in range(3)])
        v = [rng.randint(-9, 9) for _ in range(3)]
        shift = [0, 0, 0]
        for row in lat.rows:
            k = rng.randint(-3, 3)
            shift = [a + k * b for a, b in zip(shift, row)]
        assert lat.reduce(v) == lat.reduce([a + b for a, b in zip(v, shift)])


def test_lattice_canonical_basis_is_insertion_invariant():
    rng = random.Random(9)
    for _ in range(30):
        vecs = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(5)]
        lat1 = IntLattice(4, vecs)
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        lat2 = IntLattice(4, shuffled)
        assert lat1.canonical_basis() == lat2.canonical_basis()


def test_lattice_brute_force_agreement():
    # compare with explicit small-coefficient span enumeration
    gens = [[2, 1], [0, 3]]
    lat = IntLattice(2, gens)
    span = set()
    for a in range(-6, 7):
        for b in range(-6, 7):
            span.add((2 * a, a + 3 * b))
    for x in range(-6, 7):
        for y in range(-6, 7):
            if (x, y) in span:
                assert [x, y] in lat
    # membership never claims vectors outside the rational row space
    assert [1, 0] not in lat


def test_lattice_dimension_check():
    lat = IntLattice(3)
    with pytest.raises(ValueError):
        lat.add([1, 2])


# -- sparse lattices ----------------------------------------------------------


def _sparse(vec):
    return {i: x for i, x in enumerate(vec) if x}


def test_sparse_lattice_matches_dense():
    from schubert.intlinalg import SparseIntLattice

    rng = random.Random(13)
    seen = set()
    for _ in range(40):
        dim = rng.randint(2, 5)
        vecs = [[rng.randint(-6, 6) for _ in range(dim)] for _ in range(rng.randint(1, 4))]
        dense = IntLattice(dim, vecs)
        sparse = SparseIntLattice(_sparse(v) for v in vecs)
        assert sparse.rank == dense.rank
        assert sparse.canonical_basis() == tuple(
            tuple(_sparse(row).items()) for row in dense.canonical_basis()
        )
        for _ in range(10):
            probe = [rng.randint(-8, 8) for _ in range(dim)]
            coeffs = [rng.randint(-3, 3) for _ in vecs]
            member = [sum(c * v[j] for c, v in zip(coeffs, vecs)) for j in range(dim)]
            for vec in (probe, member):
                assert (_sparse(vec) in sparse) == (vec in dense)
                assert sparse.reduce(_sparse(vec)) == _sparse(dense.reduce(vec))
                seen.add(vec in dense)
    assert seen == {True, False}


def test_sparse_lattice_tuple_keys():
    from schubert.intlinalg import SparseIntLattice

    lat = SparseIntLattice()
    assert lat.add({(0, 1): 2})
    assert lat.add({(0, 1): 3})  # gcd merge makes the (0,1) pivot 1
    assert {(0, 1): 1} in lat
    assert lat.add({(2, 0): 3, (0, 1): 1})
    assert {(2, 0): 3} in lat
    assert {(2, 0): 1} not in lat
    assert {(2, 0): 6, (0, 1): 5} in lat
    red = lat.reduce({(2, 0): 4, (5, 5): 7})
    assert red == {(2, 0): 1, (5, 5): 7}


def test_sparse_lattice_canonical_basis_invariant():
    from schubert.intlinalg import SparseIntLattice

    rng = random.Random(17)
    for _ in range(30):
        vecs = []
        for _ in range(4):
            vecs.append({k: rng.randint(-5, 5) for k in rng.sample(range(6), 3)})
        lat1 = SparseIntLattice(vecs)
        rng.shuffle(vecs)
        lat2 = SparseIntLattice(vecs)
        assert lat1.canonical_basis() == lat2.canonical_basis()
        for v in vecs:
            assert v in lat1
            assert lat1.reduce(v) == {}


@given(matrices, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_solve_left_roundtrip(M, seed):
    from schubert.intlinalg import solve_left

    rng = random.Random(seed)
    coeffs = [[rng.randint(-4, 4) for _ in M] for _ in range(rng.randint(0, 4))]
    targets = mat_mul(coeffs, M)
    x = solve_left(M, targets)
    assert len(x) == len(targets)
    assert mat_mul(x, M) == targets


def test_solve_left_rejects_fractional_and_outside():
    from schubert.intlinalg import solve_left

    with pytest.raises(ValueError, match="pivot does not divide"):
        solve_left([[2, 0]], [[2, 0], [1, 0], [4, 0]])  # [1, 0] needs 1/2
    with pytest.raises(ValueError, match="outside row span"):
        solve_left([[1, 0]], [[3, 0], [0, 1]])
    with pytest.raises(ValueError, match="length"):
        solve_left([[1, 0]], [[1, 0], [0, 0, 1]])


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_unimodular_inverse_of_hermite_transform(M):
    from schubert.intlinalg import unimodular_inverse

    _, u = hermite_with_transform(M)
    inv = unimodular_inverse(u)
    n = len(u)
    assert mat_mul(inv, u) == [[int(i == j) for j in range(n)] for i in range(n)]


def test_unimodular_inverse_rejects_singular_and_nonsquare():
    from schubert.intlinalg import unimodular_inverse

    with pytest.raises(ValueError):
        unimodular_inverse([[2, 0], [0, 1]])  # determinant 2
    with pytest.raises(ValueError):
        unimodular_inverse([[1, 0, 0], [0, 1, 0]])
