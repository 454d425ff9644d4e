"""Cartan matrices and simple reflections for the simple Lie types.

Everything in this package is exact integer arithmetic over two coordinate
systems attached to a rank-n simple Lie type:

* weight coordinates: a vector v represents sum(v[k] * omega_{k+1}) in the
  basis of fundamental weights omega_1..omega_n;
* root coordinates: a vector r represents sum(r[k] * alpha_{k+1}) in the
  basis of simple roots alpha_1..alpha_n.

The Cartan matrix C has entries C[i][j] = 2(alpha_i, alpha_j)/(alpha_j,
alpha_j) (0-based storage, Bourbaki numbering of the nodes).  The simple
reflection sigma_i acts by

    sigma_i(v)[k] = v[k] - v[i-1] * C[i-1][k]     (weight coordinates)
    sigma_i(r)    = r - <r, alpha_i-check> e_i    (root coordinates)

where <r, alpha_i-check> = sum_k r[k] * C[k][i-1].  Public functions index
simple roots 1..n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

FAMILIES = "ABCDEFG"

# Smallest rank for which the diagram of each family is defined and not a
# duplicate of an earlier family's diagram.
_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"E": 8, "F": 4, "G": 2}


@dataclass(frozen=True, order=True)
class LieType:
    """A simple Lie type such as A3, F4 or E7."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        lo = _MIN_RANK[self.family]
        hi = _MAX_RANK.get(self.family, 10**9)
        if not (isinstance(self.rank, int) and lo <= self.rank <= hi):
            raise ValueError(f"rank {self.rank} out of range [{lo}, {hi}] for family {self.family}")

    @classmethod
    def parse(cls, text: str) -> "LieType":
        """Parse names like "A3", "f4", "E7" (case-insensitive).

        >>> LieType.parse("f4")
        LieType(family='F', rank=4)
        """
        s = text.strip().upper()
        if len(s) < 2 or s[0] not in FAMILIES or not s[1:].isdigit():
            raise ValueError(f"cannot parse Lie type from {text!r} (expected e.g. 'A3', 'F4')")
        return cls(s[0], int(s[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@lru_cache(maxsize=None)
def cartan_matrix(lie_type: LieType) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix of `lie_type` as a tuple of rows (0-based storage).

    Bourbaki node numbering: the classical families are chains with the
    short/long fork at the end (B: C[n-2][n-1] = -2 in 0-based storage,
    C: transposed), D forks the last node off node n-2, E hangs node 2 off
    node 4 of the chain 1-3-4-5-..., F4 doubles the middle bond toward node
    3, and G2 is [[2, -1], [-3, 2]].

    >>> cartan_matrix(LieType.parse("G2"))
    ((2, -1), (-3, 2))
    """
    fam, n = lie_type.family, lie_type.rank
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def bond(i, j, cij=-1, cji=-1):
        # 1-based node labels
        c[i - 1][j - 1] = cij
        c[j - 1][i - 1] = cji

    if fam in "ABCFG":
        for i in range(1, n):
            bond(i, i + 1)
    if fam == "B":
        bond(n - 1, n, -2, -1)
    elif fam == "C":
        bond(n - 1, n, -1, -2)
    elif fam == "D":
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 2, n)
    elif fam == "E":
        chain = [1] + list(range(3, n + 1))
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(2, 4)
    elif fam == "F":
        bond(2, 3, -2, -1)
    elif fam == "G":
        bond(1, 2, -1, -3)
    return tuple(tuple(row) for row in c)


def reflect_weight(lie_type: LieType, i: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """Apply sigma_i to a vector in fundamental-weight coordinates.

    >>> reflect_weight(LieType.parse("A2"), 1, (1, 0))
    (-1, 1)
    """
    row = cartan_matrix(lie_type)[i - 1]
    ci = v[i - 1]
    if ci == 0:
        return tuple(v)
    return tuple(v[k] - ci * row[k] for k in range(len(v)))
