"""Exact integer linear algebra tests.

Transforms are checked by direct re-multiplication, kernels by saturation
(Smith invariants of the kernel matrix must all be 1), and the lattice by
comparison with brute-force integer span enumeration on small cases.
"""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubert.intlinalg import (
    AbelianGroupStructure,
    IntLattice,
    cokernel_structure,
    determinant,
    diagonalize_with_unit_minor,
    hermite_with_transform,
    kernel_basis,
    smith_with_transforms,
)


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


# -- cokernel ---------------------------------------------------------------


def test_cokernel_examples():
    assert cokernel_structure([[2]]) == AbelianGroupStructure(0, (2,))
    assert cokernel_structure([[1, 0]]) == AbelianGroupStructure(1)
    assert cokernel_structure([[2, 0], [0, 3]]) == AbelianGroupStructure(0, (6,))
    assert cokernel_structure([[1, 0], [0, 1]]).is_trivial()
    assert cokernel_structure([[0, 0]]) == AbelianGroupStructure(2)
    assert cokernel_structure([[4], [6]]) == AbelianGroupStructure(0, (2,))


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
    with pytest.raises(ValueError, match="invariant factors"):
        diagonalize_with_unit_minor([[2]])
    with pytest.raises(ValueError):
        diagonalize_with_unit_minor([[1, 1], [2, 2]])


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


def test_sparse_lattice_matches_dense():
    from schubert.intlinalg import SparseIntLattice

    rng = random.Random(13)
    for _ in range(40):
        dim = rng.randint(2, 5)
        vecs = [[rng.randint(-6, 6) for _ in range(dim)] for _ in range(rng.randint(1, 4))]
        dense = IntLattice(dim, vecs)
        sparse = SparseIntLattice({i: x for i, x in enumerate(v) if x} for v in vecs)
        assert sparse.rank == dense.rank
        for _ in range(10):
            probe = [rng.randint(-8, 8) for _ in range(dim)]
            sp = {i: x for i, x in enumerate(probe) if x}
            assert (sp in sparse) == (probe in dense)


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
    coeffs = [rng.randint(-4, 4) for _ in M]
    target = [sum(c * row[j] for c, row in zip(coeffs, M)) for j in range(len(M[0]))]
    x = solve_left(M, target)
    assert [sum(xi * row[j] for xi, row in zip(x, M)) for j in range(len(M[0]))] == target


def test_solve_left_rejects_fractional_and_outside():
    from schubert.intlinalg import solve_left

    with pytest.raises(ValueError):
        solve_left([[2, 0]], [1, 0])  # needs coefficient 1/2
    with pytest.raises(ValueError):
        solve_left([[1, 0]], [0, 1])  # outside the row span
    with pytest.raises(ValueError):
        solve_left([[1, 0]], [0, 0, 1])  # length mismatch


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
