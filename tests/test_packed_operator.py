"""The packed-key operator against the tuple-keyed oracle, and its input check."""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from schubert import characteristics
from schubert.cartan import LieType
from schubert.cohomology import minimal_generators
from schubert.triangular import StrictUpperMatrix, evaluate_exponents
from schubert.weyl import enumerate_cosets

from tuple_operator import tuple_evaluate_exponents


def random_matrix(m, rng):
    return StrictUpperMatrix.from_entry_fn(m, lambda i, j: rng.randint(-3, 3))


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_packed_matches_tuple_oracle(data):
    # m runs across the bit-width steps 1/2, 3/4, 7/8 and 15/16
    m = data.draw(st.integers(1, 24))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    a = random_matrix(m, rng)
    terms = {}
    for _ in range(data.draw(st.integers(0, 4))):
        # x_1*...*x_m with a few units moved between variables: homogeneous of
        # degree m, with exponents up to m, and cheap enough for the oracle
        exp = [1] * m
        for _ in range(data.draw(st.integers(0, 5))):
            i = data.draw(st.integers(0, m - 1))
            j = data.draw(st.integers(0, m - 1))
            if exp[i]:
                exp[i] -= 1
                exp[j] += 1
        terms[tuple(exp)] = data.draw(st.integers(-5, 5))
    assert evaluate_exponents(a, terms) == tuple_evaluate_exponents(a, terms)


def _chain_matrix(m):
    """Nonzero entries on the first row and the superdiagonal only.

    The substituted linear form then has at most two terms, so x_m^m stays
    cheap while x_1 collects exponents up to m - 1.
    """
    rng = random.Random(m)
    return StrictUpperMatrix.from_entry_fn(
        m,
        lambda i, j: rng.choice((-3, -2, -1, 1, 2, 3)) if i == 0 or j == i + 1 else 0,
    )


@pytest.mark.parametrize("m", [7, 8, 15, 16])
@pytest.mark.parametrize("power_of", ["x_m", "x_1"])
def test_pure_powers_at_bit_width_boundaries(m, power_of):
    a = _chain_matrix(m)
    exp = (0,) * (m - 1) + (m,) if power_of == "x_m" else (m,) + (0,) * (m - 1)
    expected = tuple_evaluate_exponents(a, {exp: 1})
    assert evaluate_exponents(a, {exp: 1}) == expected
    assert (expected != 0) == (power_of == "x_m")


def test_f4_p1_generator_pass_replays_against_oracle(monkeypatch):
    calls = []

    def record(a, terms):
        calls.append((a, dict(terms)))
        return evaluate_exponents(a, terms)

    monkeypatch.setattr(characteristics, "evaluate_exponents", record)
    # a fresh table: a shared fixture may already hold its products
    minimal_generators(enumerate_cosets(LieType.parse("F4"), {1}))
    assert calls
    assert max(a.size for a, _ in calls) >= 8  # crosses a bit-width step
    for a, terms in calls:
        assert evaluate_exponents(a, terms) == tuple_evaluate_exponents(a, terms)


# ------------------------------------------------------------- input check

A3 = StrictUpperMatrix.from_entry_fn(3, lambda i, j: 1)

BAD_TERMS = {
    "too-short": ({(1, 2): 1}, "2 variables, matrix has size 3"),
    "too-long": ({(1, 1, 1, 0): 1}, "4 variables, matrix has size 3"),
    "negative": ({(4, 0, -1): 1}, "negative entry"),
    "degree-low": ({(1, 1, 0): 1}, "degree 2, expected 3"),
    "degree-high": ({(8, 0, 1): 1}, "degree 9, expected 3"),
    "one-bad-among-good": ({(1, 1, 1): 2, (0, 0, 4): 1}, "degree 4, expected 3"),
}


@pytest.mark.parametrize("case", sorted(BAD_TERMS))
def test_malformed_exponents_are_rejected(case):
    terms, message = BAD_TERMS[case]
    with pytest.raises(ValueError, match=message):
        evaluate_exponents(A3, terms)


def test_exponent_check_survives_optimize(subprocess_env):
    code = (
        "from schubert.triangular import StrictUpperMatrix, evaluate_exponents\n"
        "assert False\n"  # stripped under -O, so this line proves -O is on
        "a = StrictUpperMatrix.from_entry_fn(3, lambda i, j: 1)\n"
        "evaluate_exponents(a, {(4, 0, -1): 1})\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert proc.returncode == 1
    assert "ValueError: exponent (4, 0, -1) has a negative entry" in proc.stderr
