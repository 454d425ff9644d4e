"""Graded polynomials with integer coefficients in named weighted variables.

A `PolyRing` fixes an ordered tuple of variable names with positive integer
degrees (cohomology rings use degree 2 for the weight classes w_i and 2j
for a degree-j Schubert generator y_j; the triangular-operator rings use
degree-1 variables x_1..x_m).  An `IntPolynomial` stores a sparse map from
exponent tuples to nonzero integer coefficients.

Monomial bases are ordered by *descending* lexicographic order on exponent
tuples, so for degrees (2, 4) and total degree 8 the basis reads y1^4,
y1^2*y2, y2^2.  Rendering orders the terms of a polynomial by number of
factors first ("2*y3 - w1^3"), which keeps relations in solved form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class PolyRing:
    """An ordered list of named variables with positive integer degrees."""

    names: tuple[str, ...]
    degrees: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.degrees):
            raise ValueError("names and degrees must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")
        for name in self.names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise ValueError(f"invalid variable name {name!r}")
        if any(d <= 0 for d in self.degrees):
            raise ValueError("variable degrees must be positive")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r} in ring {self.names}") from None

    def zero(self) -> "IntPolynomial":
        return IntPolynomial(self, {})

    def one(self) -> "IntPolynomial":
        return self.constant(1)

    def constant(self, c: int) -> "IntPolynomial":
        zero_exp = (0,) * self.nvars
        return IntPolynomial(self, {zero_exp: c} if c else {})

    def variable(self, name: str) -> "IntPolynomial":
        i = self.index(name)
        exp = tuple(int(j == i) for j in range(self.nvars))
        return IntPolynomial(self, {exp: 1})

    def monomial(self, exponents, coeff: int = 1) -> "IntPolynomial":
        exp = tuple(exponents)
        if len(exp) != self.nvars or any(e < 0 for e in exp):
            raise ValueError(f"bad exponent tuple {exp} for {self.nvars} variables")
        return IntPolynomial(self, {exp: coeff} if coeff else {})

    def monomial_degree(self, exponents) -> int:
        return sum(e * d for e, d in zip(exponents, self.degrees))


def monomial_exponents(ring: PolyRing, m: int) -> list[tuple[int, ...]]:
    """Exponent tuples of weighted degree m, in descending lex order."""
    return list(_monomial_exponents(ring.degrees, m))


@lru_cache(maxsize=None)
def _monomial_exponents(degrees, m):
    if m < 0:
        return ()
    if not degrees:
        return ((),) if m == 0 else ()
    d = degrees[0]
    out = []
    for e in range(m // d, -1, -1):
        for tail in _monomial_exponents(degrees[1:], m - e * d):
            out.append((e,) + tail)
    return tuple(out)


class IntPolynomial:
    """Sparse integer polynomial over a PolyRing; zero coefficients never stored."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    # -- ring operations ---------------------------------------------

    def _coerce(self, other):
        if isinstance(other, IntPolynomial):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return IntPolynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(self.ring, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return IntPolynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == self.ring.constant(other).terms
        return (
            isinstance(other, IntPolynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    # -- graded structure ----------------------------------------------

    def degree(self):
        """Top weighted degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.ring.monomial_degree(e) for e in self.terms)

    # -- substitution ----------------------------------------------------

    def substitute(self, mapping, target_ring: PolyRing | None = None) -> "IntPolynomial":
        """Apply a ring map given by {name: polynomial-or-int}.

        Unmapped variables go to the variable of the same name in the
        target ring (default: this polynomial's own ring).
        """
        target = target_ring if target_ring is not None else self.ring
        images = []
        for name in self.ring.names:
            if name in mapping:
                img = mapping[name]
                if isinstance(img, int):
                    img = target.constant(img)
                elif img.ring != target:
                    raise ValueError(f"image of {name!r} lives in the wrong ring")
            else:
                img = target.variable(name)
            images.append(img)
        out = target.zero()
        for e, c in self.terms.items():
            term = target.constant(c)
            for img, k in zip(images, e):
                if k:
                    term = term * img**k
            out = out + term
        return out

    def rename_into(self, target: PolyRing) -> "IntPolynomial":
        """Reinterpret in a ring containing every variable this poly uses."""
        pos = [
            target.index(name) if any(e[i] for e in self.terms) else -1
            for i, name in enumerate(self.ring.names)
        ]
        terms = {}
        for e, c in self.terms.items():
            exp = [0] * target.nvars
            for p, k in zip(pos, e):
                if k:
                    exp[p] = k
            terms[tuple(exp)] = c
        return IntPolynomial(target, terms)

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        # render terms with the fewest factors first (then descending lex),
        # so a relation such as 2*y3 - w1^3 leads with its solved generator
        if not self.terms:
            return "0"
        chunks = []
        ordered = sorted(
            self.terms.items(), key=lambda item: (sum(item[0]), tuple(-e for e in item[0]))
        )
        for exp, coeff in ordered:
            factors = []
            for name, k in zip(self.ring.names, exp):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"IntPolynomial({self})"


_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?)\s*")


def parse_polynomial(ring: PolyRing, text: str) -> IntPolynomial:
    """Parse renderings like "2*y3 - w1^3" back into a polynomial."""
    out = ring.zero()
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty polynomial text")
    for chunk in _TERM_SPLIT.split(stripped.replace(" ", "")):
        if not chunk:
            continue
        sign = 1
        body = chunk
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        if not body:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = sign
        exp = [0] * ring.nvars
        for factor in body.split("*"):
            m = _FACTOR.fullmatch(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
            num, name, power = m.groups()
            if num is not None:
                coeff *= int(num)
            else:
                try:
                    idx = ring.index(name)
                except KeyError:
                    raise ValueError(
                        f"unknown variable {name!r} in {text!r} (ring has {ring.names})"
                    ) from None
                exp[idx] += int(power) if power else 1
        out = out + ring.monomial(exp, coeff)
    return out
