"""Tests for Cartan matrices, reflections, and root closures."""

import pytest
from hypothesis import given, strategies as st

from schubert.cartan import LieType, cartan_matrix, reflect_weight

from brute_weyl import all_roots, positive_roots, reflect_root

SMALL_TYPES = [
    LieType.parse(s)
    for s in ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"]
]


def test_parse():
    assert LieType.parse("A3") == LieType("A", 3)
    assert LieType.parse("f4") == LieType("F", 4)
    assert LieType.parse(" e7 ") == LieType("E", 7)
    assert str(LieType.parse("b2")) == "B2"


@pytest.mark.parametrize("bad", ["H3", "A", "4F", "A0", "E9", "G3", "C2", "D3", ""])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        LieType.parse(bad)


def test_cartan_matrices_small():
    assert cartan_matrix(LieType.parse("A2")) == ((2, -1), (-1, 2))
    assert cartan_matrix(LieType.parse("G2")) == ((2, -1), (-3, 2))
    assert cartan_matrix(LieType.parse("B2")) == ((2, -2), (-1, 2))
    assert cartan_matrix(LieType.parse("C3")) == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert cartan_matrix(LieType.parse("F4")) == (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )


def test_cartan_matrix_d4_star():
    c = cartan_matrix(LieType.parse("D4"))
    # node 2 is the center of the star
    assert c[0][1] == c[2][1] == c[3][1] == -1
    assert c[0][2] == c[0][3] == c[2][3] == 0


def test_cartan_matrix_e6_shape():
    c = cartan_matrix(LieType.parse("E6"))
    edges = {(i, j) for i in range(6) for j in range(6) if i < j and c[i][j] != 0}
    assert edges == {(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)}


@pytest.mark.parametrize("lt", SMALL_TYPES + [LieType.parse("E6")])
def test_cartan_diagonal_and_signs(lt):
    c = cartan_matrix(lt)
    n = lt.rank
    for i in range(n):
        assert c[i][i] == 2
        for j in range(n):
            if i != j:
                assert -3 <= c[i][j] <= 0
                # c[i][j] and c[j][i] vanish together
                assert (c[i][j] == 0) == (c[j][i] == 0)


def test_reflect_weight_example():
    assert reflect_weight(LieType.parse("A2"), 1, (1, 0)) == (-1, 1)
    # sigma_i fixes the other fundamental weights
    assert reflect_weight(LieType.parse("A2"), 1, (0, 1)) == (0, 1)


def test_reflect_root_example():
    assert reflect_root(LieType.parse("A2"), 1, (0, 1)) == (1, 1)
    # sigma_i negates its own simple root
    assert reflect_root(LieType.parse("A2"), 1, (1, 0)) == (-1, 0)


@given(
    lt=st.sampled_from(SMALL_TYPES),
    data=st.data(),
)
def test_reflections_are_involutions(lt, data):
    n = lt.rank
    i = data.draw(st.integers(1, n))
    v = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
    assert reflect_weight(lt, i, reflect_weight(lt, i, v)) == v
    assert reflect_root(lt, i, reflect_root(lt, i, v)) == v


@pytest.mark.parametrize(
    "name,size",
    [("A2", 6), ("B2", 8), ("G2", 12), ("A3", 12), ("F4", 48)],
)
def test_root_closure_sizes(name, size):
    assert len(all_roots(LieType.parse(name))) == size


@pytest.mark.parametrize("lt", SMALL_TYPES)
def test_root_sign_dichotomy(lt):
    roots = all_roots(lt)
    for r in roots:
        assert all(x >= 0 for x in r) or all(x <= 0 for x in r)
    pos = positive_roots(lt)
    assert len(pos) * 2 == len(roots)
    # roots come in +/- pairs
    assert {tuple(-x for x in r) for r in pos} == set(roots) - set(pos)


@pytest.mark.parametrize("lt", SMALL_TYPES)
def test_simple_reflection_permutes_other_positives(lt):
    # sigma_i sends alpha_i to -alpha_i and permutes the remaining positives
    n = lt.rank
    pos = set(positive_roots(lt))
    for i in range(1, n + 1):
        alpha = tuple(int(k == i - 1) for k in range(n))
        images = {reflect_root(lt, i, r) for r in pos if r != alpha}
        assert images == pos - {alpha}
        assert reflect_root(lt, i, alpha) == tuple(-x for x in alpha)
