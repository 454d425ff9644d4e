"""Tests for graded integer polynomials."""

import pytest
from hypothesis import given, settings, strategies as st

from schubert.intpoly import (
    IntPolynomial,
    PolyRing,
    monomial_exponents,
    parse_polynomial,
)

R2 = PolyRing(("y1", "y2"), (2, 4))
RW = PolyRing(("w1", "y3"), (2, 6))
RX = PolyRing(("x1", "x2", "x3"), (1, 1, 1))


def test_ring_validation():
    with pytest.raises(ValueError):
        PolyRing(("a", "a"), (1, 1))
    with pytest.raises(ValueError):
        PolyRing(("a",), (0,))
    with pytest.raises(ValueError):
        PolyRing(("a", "b"), (1,))
    with pytest.raises(ValueError):
        PolyRing(("1bad",), (2,))


def test_monomial_basis_example():
    # degrees (2, 4), total degree 8: y1^4, y1^2*y2, y2^2 in that order
    assert monomial_exponents(R2, 8) == [(4, 0), (2, 1), (0, 2)]
    assert [str(R2.monomial(e)) for e in monomial_exponents(R2, 8)] == [
        "y1^4", "y1^2*y2", "y2^2",
    ]
    assert monomial_exponents(R2, 0) == [(0, 0)]
    assert monomial_exponents(R2, 3) == []
    assert monomial_exponents(R2, -2) == []


def test_monomial_basis_degree_one_vars():
    assert monomial_exponents(RX, 2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]


def test_arithmetic_basics():
    x, y = RX.variable("x1"), RX.variable("x2")
    assert str((x + y) * (x - y)) == "x1^2 - x2^2"
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert x - x == RX.zero()
    assert (x * 0).is_zero()
    assert not (x * 0).terms  # no zero coefficients stored
    assert 3 * x == x * 3
    assert (x + 1) * (x - 1) == x * x - 1


def test_zero_coefficients_never_stored():
    x, y = RX.variable("x1"), RX.variable("x2")
    p = x * y - y * x + RX.constant(0)
    assert p.terms == {}
    q = (x + y) ** 2 - x * x - 2 * x * y - y * y
    assert q.terms == {}


def test_degree_and_graded_piece():
    w, y = RW.variable("w1"), RW.variable("y3")
    p = 2 * y - w**3
    assert p.degree() == 6
    assert p.is_homogeneous()
    q = p + w
    assert not q.is_homogeneous()
    assert q.degree() == 6
    assert sorted(RW.monomial_degree(e) for e in q.terms) == [2, 6, 6]
    assert RW.zero().degree() is None


def test_rendering():
    w, y = RW.variable("w1"), RW.variable("y3")
    assert str(2 * y - w**3) == "2*y3 - w1^3"
    assert str(RW.zero()) == "0"
    assert str(RW.constant(-7)) == "-7"
    assert str(w) == "w1"
    assert str(-w) == "-w1"
    assert str(w * y) == "w1*y3"
    assert str(1 + w**2) == "1 + w1^2"


@pytest.mark.parametrize("text", ["2*y3 - w1^3", "w1^3", "-w1*y3 + 4", "0", "- 2*w1 + w1"])
def test_parse_roundtrip(text):
    p = parse_polynomial(RW, text)
    assert parse_polynomial(RW, str(p)) == p


def test_parse_examples():
    w, y = RW.variable("w1"), RW.variable("y3")
    assert parse_polynomial(RW, "2*y3 - w1^3") == 2 * y - w**3
    assert parse_polynomial(RW, "2 * y3-w1 ^3".replace(" ^", "^")) == 2 * y - w**3
    assert parse_polynomial(RW, "-3") == RW.constant(-3)
    with pytest.raises(ValueError):
        parse_polynomial(RW, "q7")
    with pytest.raises(ValueError):
        parse_polynomial(RW, "z1 + 2")
    with pytest.raises(ValueError):
        parse_polynomial(RW, "")


def test_substitute():
    w, y = RW.variable("w1"), RW.variable("y3")
    p = 2 * y - w**3
    # kill the generator y3
    assert p.substitute({"y3": 0}) == -(w**3)
    # replace y3 by w1^3 (degree-preserving)
    assert p.substitute({"y3": w**3}) == w**3
    # map into a bigger ring
    big = PolyRing(("w1", "w2", "y3"), (2, 2, 6))
    img = p.substitute({"y3": big.variable("y3")}, target_ring=big)
    assert img.ring == big
    assert str(img) == "2*y3 - w1^3"


def test_rename_into():
    big = PolyRing(("w1", "w2", "y3"), (2, 2, 6))
    w, y = RW.variable("w1"), RW.variable("y3")
    p = (2 * y - w**3).rename_into(big)
    assert p.ring == big
    assert str(p) == "2*y3 - w1^3"


@st.composite
def polys(draw):
    nterms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(nterms):
        exp = tuple(draw(st.integers(0, 4)) for _ in range(3))
        terms[exp] = draw(st.integers(-9, 9))
    return IntPolynomial(RX, terms)


@given(p=polys(), q=polys(), r=polys())
@settings(max_examples=80)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + RX.zero() == p
    assert p * RX.one() == p
    assert p - p == RX.zero()


@given(p=polys())
@settings(max_examples=60)
def test_render_parse_roundtrip_random(p):
    assert parse_polynomial(RX, str(p)) == p
