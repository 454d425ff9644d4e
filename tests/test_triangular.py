"""Tests for the triangular operator against its ideal-reduction oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from schubert.cartan import LieType, cartan_matrix
from schubert.intpoly import IntPolynomial, PolyRing
from schubert.triangular import (
    StrictUpperMatrix,
    cartan_matrix_of_word,
    evaluate_exponents,
)
from schubert.weyl import WeylElement

from brute_triangular import brute_t_operator
from strict_upper import from_entry_fn

A1 = LieType.parse("A1")
A2 = LieType.parse("A2")
F4 = LieType.parse("F4")


def evaluate(A: StrictUpperMatrix, h: IntPolynomial) -> int:
    """T_A applied to a homogeneous degree-m form in x_1..x_m (m = A.size)."""
    ring = h.ring
    if ring.nvars != A.size:
        raise ValueError(f"form has {ring.nvars} variables, matrix has size {A.size}")
    if any(d != 1 for d in ring.degrees):
        raise ValueError("the operator acts on rings of degree-1 variables")
    if len({ring.monomial_degree(e) for e in h.terms}) > 1:
        raise ValueError("the operator is defined on homogeneous forms only")
    return evaluate_exponents(A, h.terms)


def x_ring(m):
    return PolyRing(tuple(f"x{i}" for i in range(1, m + 1)), (1,) * m)


def random_matrix(m, rng):
    return from_entry_fn(m, lambda i, j: rng.randint(-3, 3))


# ------------------------------------------------------------- structure


def test_strict_upper_matrix_shape():
    dense = [[0, 5, 7], [0, 0, -2], [0, 0, 0]]
    a = from_entry_fn(3, lambda i, j: dense[i][j])
    assert a.size == 3
    assert a.rows == ((5, 7), (-2,), ())
    assert a.column(1) == (5,)
    assert a.column(2) == (7, -2)
    with pytest.raises(ValueError):
        StrictUpperMatrix(2, ((1, 2),))


def test_cartan_matrix_of_word_examples():
    a = cartan_matrix_of_word(A2, (1, 2))
    assert a.size == 2
    assert a.column(1) == (1,)  # -C[2][1] = 1
    single = cartan_matrix_of_word(F4, (3,))
    assert single.size == 1
    assert single.rows == ((),)
    doubled = cartan_matrix_of_word(A1, (1, 1))
    assert doubled.column(1) == (-2,)
    f4 = cartan_matrix_of_word(F4, (3, 2, 1))
    assert f4.rows == ((2, 0), (1,), ())
    with pytest.raises(ValueError):
        cartan_matrix_of_word(A2, ())


# every type of rank at most 8: (family, lowest rank, highest rank)
RANK_8_TYPES = [
    f"{family}{n}"
    for family, lo, hi in (
        ("A", 1, 8), ("B", 2, 8), ("C", 3, 8), ("D", 4, 8), ("E", 6, 8), ("F", 4, 4), ("G", 2, 2)
    )
    for n in range(lo, hi + 1)
]


@pytest.mark.parametrize("name", RANK_8_TYPES)
def test_cartan_matrix_of_word_matches_entrywise_build(name):
    lt = LieType.parse(name)
    c = cartan_matrix(lt)
    rng = random.Random(name)
    for _ in range(20):
        raw = [rng.randint(1, lt.rank) for _ in range(rng.randint(1, 40))]
        w = WeylElement.from_word(lt, raw).word  # a reduced word
        if not w:
            continue
        expected = from_entry_fn(len(w), lambda i, j: -c[w[j] - 1][w[i] - 1])
        assert cartan_matrix_of_word(lt, w) == expected, w
    for bad in ((0, 1), (1, lt.rank + 1)):
        with pytest.raises(KeyError):
            cartan_matrix_of_word(lt, bad)


# ------------------------------------------------------------- evaluation


def test_base_cases():
    r1 = x_ring(1)
    one_by_one = StrictUpperMatrix(1, ((),))
    assert evaluate(one_by_one, r1.variable("x1")) == 1
    assert evaluate(one_by_one, 5 * r1.variable("x1")) == 5
    assert evaluate(one_by_one, r1.zero()) == 0


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_product_of_all_variables_is_one(m):
    rng = random.Random(m)
    ring = x_ring(m)
    prod = ring.one()
    for name in ring.names:
        prod = prod * ring.variable(name)
    for _ in range(5):
        assert evaluate(random_matrix(m, rng), prod) == 1


def test_m2_square():
    ring = x_ring(2)
    x2 = ring.variable("x2")
    for c in (-3, 0, 1, 4):
        a = StrictUpperMatrix(2, ((c,), ()))
        assert evaluate(a, x2 * x2) == c


def test_terms_without_last_variable_vanish():
    ring = x_ring(3)
    x1, x2 = ring.variable("x1"), ring.variable("x2")
    rng = random.Random(7)
    h = x1 * x2 * x2 - 3 * x1 * x1 * x2 + x1 * x1 * x1
    for _ in range(5):
        assert evaluate(random_matrix(3, rng), h) == 0


def test_validation_errors():
    ring = x_ring(2)
    x1, x2 = ring.variable("x1"), ring.variable("x2")
    a = StrictUpperMatrix(2, ((1,), ()))
    with pytest.raises(ValueError, match="homogeneous"):
        evaluate(a, x1 + x1 * x2)
    with pytest.raises(ValueError, match="degree"):
        evaluate(a, x1)
    with pytest.raises(ValueError, match="variables"):
        evaluate(StrictUpperMatrix(3, ((0, 0), (0,), ())), x1 * x2)
    bad_ring = PolyRing(("x1", "x2"), (1, 2))
    with pytest.raises(ValueError, match="degree-1"):
        evaluate(a, bad_ring.variable("x1") * bad_ring.variable("x1"))


def test_worked_f4_value():
    # the word (3, 2, 1) in F4 with all three factors the weight class omega_1:
    # positions carrying letter 1 = {3}, so the form is x_3^3 and the value is 2
    a = cartan_matrix_of_word(F4, (3, 2, 1))
    assert evaluate_exponents(a, {(0, 0, 3): 1}) == 2
    assert evaluate_exponents(a, {(0, 1, 2): 1}) == 2
    assert evaluate_exponents(a, {(1, 1, 1): 1}) == 1


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_additivity(data):
    m = data.draw(st.integers(1, 5))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    a = random_matrix(m, rng)

    def random_form():
        terms = {}
        for _ in range(data.draw(st.integers(0, 4))):
            exp = [0] * m
            for _ in range(m):
                exp[data.draw(st.integers(0, m - 1))] += 1
            terms[tuple(exp)] = data.draw(st.integers(-5, 5))
        return terms

    h1, h2 = random_form(), random_form()
    merged = dict(h1)
    for e, c in h2.items():
        merged[e] = merged.get(e, 0) + c
    assert (
        evaluate_exponents(a, merged)
        == evaluate_exponents(a, h1) + evaluate_exponents(a, h2)
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_oracle_agreement_all_monomials(m):
    """The recursion matches ideal reduction on every degree-m monomial."""
    rng = random.Random(100 + m)
    matrices = [random_matrix(m, rng) for _ in range(3)]
    count = 0
    for combo in itertools.combinations_with_replacement(range(m), m):
        exp = [0] * m
        for i in combo:
            exp[i] += 1
        exp = tuple(exp)
        for a in matrices:
            expected = brute_t_operator(m, lambda i, j: a.column(j)[i], {exp: 1})
            assert evaluate_exponents(a, {exp: 1}) == expected, (m, exp, a.rows)
        count += 1
    # all monomials of degree m in m variables were visited
    import math

    assert count == math.comb(2 * m - 1, m - 1)
