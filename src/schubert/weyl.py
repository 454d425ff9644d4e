"""Weyl groups, reduced words, and length-graded minimal coset representatives.

A Weyl group element w is stored as one tuple of ints, ``inv_root_rows``:
entry k packs w^{-1}(alpha_{k+1}), a root, in simple-root coordinates as
the one int sum_m v_m * 2^(4m) (``_ROOT_BITS`` = 4 bits per coordinate,
coordinate 1 lowest).  W acts faithfully on the root lattice, so this tuple
is the element's key (equality and hash).  Three facts make the packing
exact on roots:

* every root coordinate of a finite type has absolute value at most 6 (the
  highest root of E8), below 2^4, and all coordinates of a root share one
  sign, so |packed| is a base-16 numeral whose digits are the |v_m|:
  ``unpack_root`` reads them back, and distinct roots pack to distinct ints
  (any width with 2^bits > 6 would do; 4 bits keep one hex digit per
  coordinate);
* for the same reason the packed int has the root's sign, so "the root is
  negative" is ``packed < 0``;
* the packing is linear over Z, so row_k - c * row_j packs to
  packed_k - c * packed_j, and right multiplication by a simple reflection
  is one multiply-subtract per changed row.

Row signs give left descents: l(sigma_i w) < l(w) iff w^{-1}(alpha_i) < 0.
Left multiplication sigma_i * w is right multiplication of w^{-1} by
sigma_i, which changes only the rows of node i and its neighbours in the
Dynkin diagram.  Peeling off the least left descent gives the
lexicographically smallest reduced word, whose length is l(w).

``enumerate_cosets`` grades the minimal length representatives W^P of the
left cosets w * W_P, where W_P is generated by the simple reflections *not*
in K.  Their lex-least words form a tree: the word of w in W^P is its least
left descent i followed by the word of sigma_i * w, which is again in W^P.
So level r+1 is built from level r by one step, u -> sigma_i * u, taken when

* i is not a left descent of u, so the product is longer;
* u^{-1}(alpha_i) is not a simple root alpha_j with j not in K.  By
  Deodhar's lemma this is exactly when sigma_i * u = u * sigma_j leaves W^P;
* no b < i is a left descent of sigma_i * u, so i starts its lex-least word.

Each class is reached once, from its parent, and looping over i and then
over the parent level in order lists each level in lexicographic order of
the words.  So a level is fixed by its (letter, parent index) pairs, in
increasing order, and that is all a cache file stores: ``save_binary``
writes the pairs and ``CosetTable.load_binary`` rebuilds every class from
them by the same step.

Most candidate steps fail the third test, so the step decides it on u's own
rows before it builds the child's key.  Left multiplication by sigma_i adds
a nonnegative multiple of the positive root u^{-1}(alpha_i) to the rows of
i's neighbours and leaves the others alone, so row b < i of the child is
one multiply-subtract on u's packed rows.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path

from .cartan import LieType, cartan_matrix

DEFAULT_MAX_ELEMENTS = 5_000_000

_ROOT_BITS = 4
_ROOT_MASK = (1 << _ROOT_BITS) - 1


class EnumerationLimit(RuntimeError):
    """Raised when a coset enumeration would exceed its element budget."""

    def __init__(self, lie_type, K, max_elements):
        super().__init__(
            f"enumeration of {lie_type} with K={sorted(K)} exceeds "
            f"{max_elements} representatives"
        )


def unpack_root(packed: int, n: int) -> tuple[int, ...]:
    """The n simple-root coordinates of a packed root (see the module docstring)."""
    sign = -1 if packed < 0 else 1
    x = abs(packed)
    return tuple(sign * (x >> _ROOT_BITS * m & _ROOT_MASK) for m in range(n))


@lru_cache(maxsize=None)
def _identity_rows(n: int) -> tuple[int, ...]:
    """The packed simple roots alpha_1..alpha_n, the key of the identity."""
    return tuple(1 << _ROOT_BITS * k for k in range(n))


@lru_cache(maxsize=None)
def reflection_pairs(lie_type: LieType) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each 0-based j, the nonzero (k, C[k][j]) pairs of the Cartan column.

    Right multiplication of a root matrix by sigma_{j+1} is
    ``row_k -= C[k][j] * row_j`` over exactly these pairs.
    """
    c = cartan_matrix(lie_type)
    n = lie_type.rank
    return tuple(
        tuple((k, c[k][j]) for k in range(n) if c[k][j] != 0) for j in range(n)
    )


def right_multiply_rows(rows, j, pairs):
    """Packed rows of w -> packed rows of w*sigma_{j+1}; `pairs` from reflection_pairs."""
    out = list(rows)
    rj = rows[j]
    for k, c in pairs[j]:
        out[k] -= c * rj
    return tuple(out)


@lru_cache(maxsize=None)
def opposition_involution(lie_type: LieType) -> tuple[int, ...]:
    """tau(1)..tau(n), where the longest element w0 maps alpha_k to -alpha_tau(k).

    w0 is reached from the identity by lengthening while some row of its
    inverse is positive; it is an involution, so its rows are the
    w0(alpha_k).
    """
    pairs = reflection_pairs(lie_type)
    simple = _identity_rows(lie_type.rank)
    rows = simple
    while True:
        j = next((j for j, row in enumerate(rows) if row > 0), None)
        if j is None:
            break
        rows = right_multiply_rows(rows, j, pairs)
    letter = {root: k for k, root in enumerate(simple, start=1)}
    return tuple(letter[-row] for row in rows)


def _root_matrix(lie_type, word):
    """The packed root matrix of sigma_word: row k is sigma_word(alpha_{k+1})."""
    pairs = reflection_pairs(lie_type)
    rows = _identity_rows(lie_type.rank)
    for i in word:
        rows = right_multiply_rows(rows, i - 1, pairs)
    return rows


class WeylElement:
    """An element of the Weyl group of `lie_type`, keyed by the packed root matrix of w^{-1}."""

    __slots__ = ("lie_type", "inv_root_rows", "_word")

    def __init__(self, lie_type, inv_root_rows, word=None):
        self.lie_type = lie_type
        self.inv_root_rows = inv_root_rows
        self._word = word

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, lie_type: LieType) -> "WeylElement":
        return cls(lie_type, _identity_rows(lie_type.rank), word=())

    @classmethod
    def from_word(cls, lie_type: LieType, word) -> "WeylElement":
        word = tuple(word)
        n = lie_type.rank
        if word and not (1 <= min(word) and max(word) <= n):
            raise ValueError(f"word {list(word)} has a letter outside 1..{n}")
        return cls(lie_type, _root_matrix(lie_type, reversed(word)))

    # -- length, descents, words --------------------------------------

    def length(self) -> int:
        return len(self.word)

    def minimized_word(self) -> tuple[int, ...]:
        """The lexicographically smallest reduced word.

        The first letter of any reduced word is a left descent, and every
        left descent starts one, so the lex-least word begins with the
        smallest left descent and recurses.
        """
        pairs = reflection_pairs(self.lie_type)
        rows = self.inv_root_rows
        letters = []
        while True:
            for j, row in enumerate(rows):
                if row < 0:
                    letters.append(j + 1)
                    rows = right_multiply_rows(rows, j, pairs)
                    break
            else:
                return tuple(letters)

    @property
    def word(self) -> tuple[int, ...]:
        """The minimized word, cached."""
        if self._word is None:
            self._word = self.minimized_word()
        return self._word

    # -- plumbing ------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.lie_type == other.lie_type
            and self.inv_root_rows == other.inv_root_rows
        )

    def __hash__(self):
        # the key alone: hashing the frozen LieType dataclass is slow, and
        # elements of different types rarely meet in one dict
        return hash(self.inv_root_rows)

    def __repr__(self):
        return f"WeylElement({self.lie_type}, word={list(self.word)})"


def _simple_roots_outside(n: int, K) -> frozenset:
    """The packed alpha_j with j not in K.

    For u in W^P with u^{-1}(alpha_i) > 0, sigma_i * u leaves W^P exactly
    when u^{-1}(alpha_i) is one of these roots (Deodhar's lemma).
    """
    return frozenset(1 << _ROOT_BITS * (j - 1) for j in range(1, n + 1) if j not in K)


def _left_step(lie_type: LieType, i: int, K):
    """The tree step for letter i: a function taking u to its child sigma_i * u, or None.

    The child is longer than u, still minimal for K and has i as its least
    left descent, so (i,) + u.word is its lex-least reduced word (see the
    module docstring).  ``enumerate_cosets`` takes this step and
    ``CosetTable.load_binary`` checks each cached class by it.  The
    letter's reflection pairs and neighbour coefficients are bound once
    here, not once per candidate.

    Most candidates fail the least-descent test, so it is decided on u's
    own rows before the child's key is built.  Row b of the child is u's
    row b minus C[b][i-1] * u^{-1}(alpha_i) (0-based b); C[b][i-1] is 0 off
    the neighbours of node i and negative on them, and u^{-1}(alpha_i) > 0
    once the length and minimality tests hold.  So the child has no left
    descent b < i exactly when rows[b] >= C[b][i-1] * rows[i-1] for each
    such b.
    """
    j = i - 1
    pairs = reflection_pairs(lie_type)
    coeffs = dict(pairs[j])
    below = tuple((b, coeffs.get(b, 0)) for b in range(j))
    exits = _simple_roots_outside(lie_type.rank, K)

    def step(u: WeylElement) -> WeylElement | None:
        rows = u.inv_root_rows
        rj = rows[j]
        if rj < 0 or rj in exits:
            return None
        for b, c in below:
            if rows[b] < c * rj:
                return None
        return WeylElement(lie_type, right_multiply_rows(rows, j, pairs), (i,) + u.word)

    return step


def _check_K(lie_type: LieType, K) -> frozenset:
    K = frozenset(K)
    for j in K:
        if not (isinstance(j, int) and 1 <= j <= lie_type.rank):
            raise ValueError(f"K contains invalid node {j!r} for {lie_type}")
    return K


class CosetTable:
    """Minimal representatives of W / W_P graded by length.

    ``levels[r]`` lists the length-r representatives in lexicographic order
    of their minimized words; class (r, i) (i is 1-based) is
    ``levels[r][i-1]``.  A table is *complete* when the enumeration was not
    truncated by ``max_length``.
    """

    def __init__(self, lie_type, K, levels, complete, max_length=None):
        self.lie_type = lie_type
        self.K = frozenset(K)
        self.levels = levels
        self.complete = complete
        self.max_length = max_length
        self._index = {}  # packed key -> (r, i)
        for r, level in enumerate(levels):
            for i, w in enumerate(level):
                self._index[w.inv_root_rows] = (r, i + 1)
        self._cache = {}

    # -- queries -------------------------------------------------------

    @property
    def lmax(self) -> int:
        return len(self.levels) - 1

    @property
    def total(self) -> int:
        return sum(len(level) for level in self.levels)

    @property
    def betti(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)

    def beta(self, r: int) -> int:
        if 0 <= r < len(self.levels):
            return len(self.levels[r])
        return 0

    def element(self, r: int, i: int) -> WeylElement:
        if not (0 <= r < len(self.levels) and 1 <= i <= len(self.levels[r])):
            raise KeyError(f"no class ({r}, {i}) in table")
        return self.levels[r][i - 1]

    def index_of(self, w: WeylElement) -> tuple[int, int]:
        try:
            return self._index[w.inv_root_rows]
        except KeyError:
            raise KeyError(f"{w!r} is not a representative in this table") from None

    def index_of_inv_root_rows(self, rows):
        return self._index.get(rows)

    def class_of_word(self, word) -> tuple[int, int]:
        return self.index_of(WeylElement.from_word(self.lie_type, word))

    def __iter__(self):
        for r, level in enumerate(self.levels):
            for i, w in enumerate(level):
                yield r, i + 1, w

    def __eq__(self, other):
        return (
            isinstance(other, CosetTable)
            and self.lie_type == other.lie_type
            and self.K == other.K
            and self.max_length == other.max_length
            and [[w.word for w in lv] for lv in self.levels]
            == [[w.word for w in lv] for lv in other.levels]
        )

    # -- serialization ---------------------------------------------------

    # The names keep "binary" because the benchmark's tracer wraps these two
    # methods by name and reads the path from their second argument.
    def save_binary(self, path):
        """Write this table's lex-least-word tree, compactly and atomically.

        ``tree[r-1]`` is level r >= 1 as one flat list ``[a1, p1, a2, p2,
        ...]``: class (r, i) is sigma_a times class (r-1, p), p 1-based.
        """
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tree = []
        for prev, level in zip(self.levels, self.levels[1:]):
            parent = {u.word: p for p, u in enumerate(prev, start=1)}
            tree.append([x for w in level for x in (w.word[0], parent[w.word[1:]])])
        obj = {
            "lie_type": str(self.lie_type),
            "K": sorted(self.K),
            "complete": self.complete,
            "max_length": self.max_length,
            "tree": tree,
        }
        try:
            tmp.write_text(json.dumps(obj, separators=(",", ":"), sort_keys=True))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load_binary(cls, path):
        """Read a table written by ``save_binary``, re-checking every class.

        Each class is rebuilt from its parent by the enumeration step, which
        checks that it is a longer minimal representative whose lex-least
        word starts with its letter.  The pairs of a level must be strictly
        increasing (the order of the words), so no class is listed twice.
        ``complete`` and ``max_length`` must match the levels as
        ``enumerate_cosets`` sets them, and a complete table must end in one
        class that no letter lengthens within W^P, with palindromic level
        sizes.  Any other file raises ValueError.
        """
        try:
            return cls._from_tree(json.loads(Path(path).read_bytes()))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: corrupt coset-table cache ({exc})") from None

    @classmethod
    def _from_tree(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        lie_type, K, complete, max_length, tree = (
            obj.get(k) for k in ("lie_type", "K", "complete", "max_length", "tree")
        )
        if not isinstance(lie_type, str):
            raise ValueError("lie_type is not a string")
        lie_type = LieType.parse(lie_type)
        # type(x) is int, since JSON true and 1.0 compare equal to 1
        if not (isinstance(K, list) and all(type(j) is int for j in K)):
            raise ValueError("K is not a list of integers")
        K = _check_K(lie_type, K)
        if not isinstance(complete, bool):
            raise ValueError("complete is not a boolean")
        if not (max_length is None or type(max_length) is int):
            raise ValueError("max_length is not an integer")
        if not isinstance(tree, list):
            raise ValueError("tree is not a list")

        n = lie_type.rank
        steps = [_left_step(lie_type, a, K) for a in range(1, n + 1)]
        levels = [[WeylElement.identity(lie_type)]]
        for r, flat in enumerate(tree, start=1):
            # one C-level type check per level
            if not (isinstance(flat, list) and flat and len(flat) % 2 == 0
                    and set(map(type, flat)) == {int}):
                raise ValueError(f"level {r} is not a nonempty list of integer pairs")
            parents = levels[-1]
            m = len(parents)
            level = []
            prev = 0
            for a, p in zip(flat[::2], flat[1::2]):
                if not (1 <= a <= n and 1 <= p <= m):
                    raise ValueError(f"level {r}: pair ({a}, {p}) out of range")
                # (a, p) in lex order, which is the lex order of the words
                key = a * m + p
                if key <= prev:
                    raise ValueError(f"level {r}: pairs not strictly increasing at ({a}, {p})")
                prev = key
                w = steps[a - 1](parents[p - 1])
                if w is None:
                    raise ValueError(f"level {r}: ({a}, {p}) is not a step of the tree")
                level.append(w)
            levels.append(level)
        # enumerate_cosets marks a table truncated exactly when it stopped
        # at level max_length
        lmax = len(levels) - 1
        if complete != (max_length is None or max_length > lmax) or (
            not complete and max_length != lmax
        ):
            raise ValueError(f"complete={complete} and max_length={max_length} "
                             f"disagree with the {lmax + 1} levels")
        if complete:
            # a complete table ends in the single longest representative:
            # W^P is the interval [e, w_0^P] of left weak order, so only
            # w_0^P has no letter that lengthens it within W^P.  Poincare
            # duality makes the level sizes palindromic.
            top = levels[-1]
            exits = _simple_roots_outside(n, K)
            if len(top) != 1 or any(
                row > 0 and row not in exits for row in top[0].inv_root_rows
            ):
                raise ValueError(f"marked complete, but level {lmax} is not the top")
            beta = [len(level) for level in levels]
            if beta != beta[::-1]:
                raise ValueError(f"marked complete, but level sizes {beta} are not palindromic")
        return cls(lie_type, K, levels, complete, max_length)


def enumerate_cosets(
    lie_type: LieType,
    K,
    *,
    max_length: int | None = None,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> CosetTable:
    """Grade the minimal representatives of W / W_P by length.

    K lists the 1-based nodes *excluded* from the parabolic: W_P is
    generated by the sigma_j with j not in K.  K = {1..n} gives the full
    group (W_P trivial); K = {} gives the single identity coset.

    Raises EnumerationLimit if more than `max_elements` representatives
    would be produced; pass `max_length` to truncate the grading instead
    (the resulting table knows it is incomplete).
    """
    K = _check_K(lie_type, K)
    n = lie_type.rank
    steps = [_left_step(lie_type, i, K) for i in range(1, n + 1)]
    identity = WeylElement.identity(lie_type)
    levels = [[identity]]
    count = 1
    complete = True
    while True:
        if max_length is not None and len(levels) > max_length:
            complete = False
            levels = levels[: max_length + 1]
            break
        prev = levels[-1]
        level = []
        for step in steps:
            for u in prev:
                w = step(u)
                if w is not None:
                    level.append(w)
        if not level:
            break
        count += len(level)
        if count > max_elements:
            raise EnumerationLimit(lie_type, K, max_elements)
        levels.append(level)
    return CosetTable(lie_type, K, levels, complete, max_length)
