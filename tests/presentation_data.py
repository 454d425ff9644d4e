"""Expected presentation data for the exceptional flag quotients.

Reference values used as test oracles: generator words, base relations
for F4/P1, E6/P2 and E7/P2, the invariant-to-generator glue polynomials,
and the simplified full-flag relations.  Base relations are parseable
strings over the named generators; full-flag relations are builders that
receive a dict with the generator variables and the invariant
polynomials c2..cn (as produced by `weyl_orbit_invariants`) and return
the relation polynomial.  `generator_set` binds named generator words to
the classes of a coset table.
"""

from schubert.cohomology import Generator, GeneratorSet


def generator_set(table, named_words):
    """A GeneratorSet from {name: word} or an iterable of (name, word) pairs."""
    pairs = named_words.items() if isinstance(named_words, dict) else named_words
    return GeneratorSet(table, [Generator(name, tuple(word)) for name, word in pairs])


# Generator words on the parabolic quotient (and their pullbacks on G/T).
F4_WORDS = {
    "w1": (1,),
    "y3": (3, 2, 1),
    "y4": (4, 3, 2, 1),
    "y6": (3, 2, 4, 3, 2, 1),
}
E6_WORDS = {
    "w2": (2,),
    "y3": (5, 4, 2),
    "y4": (6, 5, 4, 2),
    "y6": (1, 3, 6, 5, 4, 2),
}
E7_WORDS = {
    "w2": (2,),
    "y3": (5, 4, 2),
    "y4": (6, 5, 4, 2),
    "y5": (7, 6, 5, 4, 2),
    "y6": (1, 3, 6, 5, 4, 2),
    "y7": (1, 3, 7, 6, 5, 4, 2),
    "y9": (1, 5, 4, 3, 7, 6, 5, 4, 2),
}

# Relations of the parabolic quotients, over the generators above.
F4_BASE_RELATIONS = [
    "2*y3 - w1^3",
    "2*y6 + y3^2 - 3*w1^2*y4",
    "3*y4^2 - w1^2*y6",
    "y6^2 - y4^3",
]
E6_BASE_RELATIONS = [
    "2*y6 + y3^2 - 3*w2^2*y4 + 2*w2^3*y3 - w2^6",
    "3*y4^2 - 6*w2*y3*y4 + w2^2*y6 + 5*w2^2*y3^2 - 2*w2^5*y3",
    "2*y3*y6 - w2^3*y6",
    "y6^2 - y4^3",
]
E7_BASE_RELATIONS = [
    "2*y6 + y3^2 + 2*w2*y5 - 3*w2^2*y4 + 2*w2^3*y3 - w2^6",
    "3*y4^2 - 2*y3*y5 + 2*w2*y7 - 6*w2*y3*y4 + w2^2*y6 + 5*w2^2*y3^2"
    " + 2*w2^3*y5 - 2*w2^5*y3",
    "2*y9 + 2*y4*y5 - 2*y3*y6 - 4*w2*y3*y5 - w2^2*y7 + w2^3*y6 + 2*w2^4*y5",
    "y5^2 - 2*y3*y7 + w2^3*y7",
    "y6^2 + 2*y5*y7 - y4^3 + 2*y3*y9 + 2*y3*y4*y5 + 2*w2*y5*y6"
    " - 6*w2*y4*y7 + w2^2*y5^2",
    "y7^2 - 2*y5*y9 + y4*y5^2",
    "y9^2 + 2*y5*y6*y7 - y4*y7^2 - 2*y4*y5*y9 + 2*y3*y5^3 - w2*y5^2*y7",
]

# Some invariant degrees are themselves decomposable on the base: the
# glue polynomial g_r expresses c_r(P) in the base generators.
F4_GLUE = {
    2: "4*w1^2",
    4: "3*y4 + 2*w1*y3",
    6: "y6",
}
E6_GLUE = {
    2: "4*w2^2",
    3: "2*y3 + 2*w2^3",
    4: "3*y4 + w2^4",
    5: "3*w2*y4 - 2*w2^2*y3 + w2^5",
    6: "y6",
}
E7_GLUE = {
    2: "4*w2^2",
    3: "2*y3 + 2*w2^3",
    4: "3*y4 + w2^4",
    5: "2*y5 + 3*w2*y4 - 2*w2^2*y3 + w2^5",
    6: "y6 + 2*w2*y5",
    7: "y7",
}

# Simplified full-flag relations; v maps generator names and c2..cn to
# polynomials in the full-flag ring.
F4_FULL_RELATIONS = [
    lambda v: v["c2"] - 4 * v["w1"] ** 2,
    lambda v: 3 * v["y4"] + 2 * v["w1"] * v["y3"] - v["c4"],
    lambda v: 2 * v["y3"] - v["w1"] ** 3,
    lambda v: v["y3"] ** 2 + 2 * v["c6"] - 3 * v["w1"] ** 2 * v["y4"],
    lambda v: 3 * v["y4"] ** 2 - v["w1"] ** 2 * v["c6"],
    lambda v: v["y4"] ** 3 - v["c6"] ** 2,
]
E6_FULL_RELATIONS = [
    lambda v: 4 * v["w2"] ** 2 - v["c2"],
    lambda v: 2 * v["y3"] + 2 * v["w2"] ** 3 - v["c3"],
    lambda v: 3 * v["y4"] + v["w2"] ** 4 - v["c4"],
    lambda v: 2 * v["w2"] ** 2 * v["y3"] - v["w2"] * v["c4"] + v["c5"],
    lambda v: v["y3"] ** 2 - v["w2"] * v["c5"] + 2 * v["c6"],
    lambda v: 3 * v["y4"] ** 2 - 2 * v["c5"] * v["y3"] - v["w2"] ** 2 * v["c6"]
    + v["w2"] ** 3 * v["c5"],
    lambda v: 2 * v["y3"] * v["c6"] - v["w2"] ** 3 * v["c6"],
    lambda v: v["y4"] ** 3 - v["c6"] ** 2,
]
E7_FULL_RELATIONS = [
    lambda v: 4 * v["w2"] ** 2 - v["c2"],
    lambda v: 2 * v["y3"] + 2 * v["w2"] ** 3 - v["c3"],
    lambda v: 3 * v["y4"] + v["w2"] ** 4 - v["c4"],
    lambda v: 2 * v["y5"] - 2 * v["w2"] ** 2 * v["y3"] + v["w2"] * v["c4"] - v["c5"],
    lambda v: v["y3"] ** 2 - v["w2"] * v["c5"] + 2 * v["c6"],
    lambda v: 3 * v["y4"] ** 2 + 2 * v["y3"] * v["y5"] - 2 * v["y3"] * v["c5"]
    + 2 * v["w2"] * v["c7"] - v["w2"] ** 2 * v["c6"] + v["w2"] ** 3 * v["c5"],
    lambda v: 2 * v["y9"] + 2 * v["y4"] * v["y5"] - 2 * v["y3"] * v["c6"]
    - v["w2"] ** 2 * v["c7"] + v["w2"] ** 3 * v["c6"],
    lambda v: v["y5"] ** 2 - 2 * v["y3"] * v["c7"] + v["w2"] ** 3 * v["c7"],
    lambda v: v["y4"] ** 3 - 4 * v["y5"] * v["c7"] - v["c6"] ** 2
    - 2 * v["y3"] * v["y9"] - 2 * v["y3"] * v["y4"] * v["y5"]
    + 2 * v["w2"] * v["y5"] * v["c6"] + 3 * v["w2"] * v["y4"] * v["c7"]
    + v["c5"] * v["c7"],
    lambda v: v["c7"] ** 2 - 2 * v["y5"] * v["y9"] + 2 * v["y3"] * v["y4"] * v["c7"]
    - v["w2"] ** 3 * v["y4"] * v["c7"],
    lambda v: v["y9"] ** 2 + 2 * v["y5"] * v["c6"] * v["c7"] - v["y4"] * v["c7"] ** 2
    - 2 * v["y4"] * v["y5"] * v["y9"] + 2 * v["y3"] * v["y5"] ** 3
    - 5 * v["w2"] * v["y5"] ** 2 * v["c7"],
]

# Reflection orbits of the seed weight, in fundamental-weight coordinates,
# in the breadth-first discovery order.
F4_ORBIT = [
    (0, 0, 0, 1),
    (0, 0, 1, -1),
    (0, 1, -1, 0),
    (1, -1, 1, 0),
    (1, 0, -1, 1),
    (1, 0, 0, -1),
]
E6_ORBIT = [
    (0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1, -1),
    (0, 0, 0, 1, -1, 0),
    (0, 1, 1, -1, 0, 0),
    (1, 1, -1, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0),
]

# Expected glue polynomials rewritten by the Giambelli route.
GLUE_CHECKS = [
    # (lie type, K index, generator words, invariant degree, expected)
    ("F4", 1, F4_WORDS, 4, "3*y4 + 2*w1*y3"),
    ("E6", 2, E6_WORDS, 3, "2*y3 + 2*w2^3"),
    ("E7", 2, E7_WORDS, 7, "y7"),
]
