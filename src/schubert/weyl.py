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
increasing order.  ``enumerate_cosets`` records each pair as its step
succeeds, and the table keeps them as ``tree`` beside each level's list of
packed keys.  That is all a cache file stores: ``save_binary`` writes
``tree`` as it is, and ``CosetTable.load_binary`` enumerates the table once
and accepts the file only if its bytes are exactly those.  The CLI listing
builds each word's text from the tree too.  The index from a class's key to
its place i on level r is built one level at a time, on the first lookup in
that level, so a table that is only listed or saved never builds one, and a
product of degree r builds those of the levels it reads.

The step takes keys to keys: it makes no ``WeylElement`` and no word.  A
table makes the elements of a level the first time that level is read,
after the levels below it (``CosetTable.level``), each with its word: the
class with pair (a, p) has word a followed by the word of class p of the
level below, one tuple concatenation.  So a table that is only listed,
saved or compared makes no element, a product of degree r makes those of
levels 0..r, and reading a level costs one word tuple per class.

Most candidate steps fail the third test, and the first letter f of the
parent u (its tree letter, the identity counting as n + 1) decides most of
them without a look at u's rows.  f is u's least left descent: rows b < f - 1
of u are positive and row f - 1 is negative.  Left multiplication by sigma_i
adds a nonnegative multiple of u^{-1}(alpha_i) to the rows of i's neighbours
and leaves the others alone.  So

* f > i: row i - 1 is positive, and each row below it gains a nonnegative
  multiple of it, so the child has no left descent below i and only
  Deodhar's test is left;
* f = i: i is a left descent of u, so the step fails;
* f < i not a neighbour of i: row f - 1 is not changed, so f stays a left
  descent of the child, below i, and the step fails;
* f < i a neighbour of i: the full step decides, on u's own rows before it
  builds the child's key (row b < i of the child is one multiply-subtract
  on u's packed rows).

A level lists its classes in (letter, parent) order, so those with first
letter f are one contiguous block, and ``enumerate_cosets`` runs the full
step only on the blocks of i's smaller neighbours.  On E6/T that is 51,813
full steps for 51,839 children, where trying every letter on every parent
takes 311,040.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left
from functools import lru_cache
from pathlib import Path

from .cartan import LieType, cartan_matrix

DEFAULT_MAX_ELEMENTS = 5_000_000

_ROOT_BITS = 4
_ROOT_MASK = (1 << _ROOT_BITS) - 1


class EnumerationLimit(RuntimeError):
    """Raised when a coset enumeration would exceed its element budget."""

    def __init__(self, lie_type, K, max_elements):
        # a long K is summed up by its size, so the message stays one short line
        nodes = f"K={sorted(K)}" if len(K) <= 16 else f"{len(K)} nodes in K"
        super().__init__(
            f"enumeration of {lie_type} with {nodes} exceeds "
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
    """An element of the Weyl group of `lie_type`, keyed by the packed root matrix of w^{-1}.

    A ``CosetTable`` gives each element it makes its word from the tree
    (see the module docstring); any other element builds ``word`` from
    ``minimized_word`` on first access and caches it.
    """

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

    # -- descents, words ----------------------------------------------

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
        """The minimized word, built on first access and cached."""
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
    """The tree step for letter i: a function taking u's key to its child's, or None.

    Keys are packed rows (``WeylElement.inv_root_rows``).  The child
    sigma_i * u is longer than u, still minimal for K and has i as its
    least left descent, so i followed by u's word is its lex-least reduced
    word (see the module docstring).  The step builds neither an element
    nor a word.  ``enumerate_cosets`` takes this step where u's first
    letter leaves it open.  The letter's reflection pairs and neighbour
    coefficients are bound once here, not once per candidate.

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

    def step(rows):
        rj = rows[j]
        if rj < 0 or rj in exits:
            return None
        for b, c in below:
            if rows[b] < c * rj:
                return None
        return right_multiply_rows(rows, j, pairs)

    return step


def _check_K(lie_type: LieType, K) -> frozenset:
    K = frozenset(K)
    for j in K:
        if not (isinstance(j, int) and 1 <= j <= lie_type.rank):
            raise ValueError(f"K contains invalid node {j!r} for {lie_type}")
    return K


class CosetTable:
    """Minimal representatives of W / W_P graded by length.

    ``keys[r]`` lists the packed keys (``WeylElement.inv_root_rows``) of
    the length-r representatives in lexicographic order of their minimized
    words; class (r, i) (i is 1-based) has key ``keys[r][i-1]``.  A table is
    *complete* when the enumeration was not truncated by ``max_length``.

    ``tree`` is the lex-least-word tree that the enumeration recorded:
    ``tree[r-1]`` is level r >= 1 as one flat list ``[a1, p1, a2, p2, ...]``,
    where class (r, i) is sigma_a times class (r-1, p), p 1-based.
    The cache file is its compact JSON beside the header (``_file_bytes``).
    A table built by hand may pass None; it cannot be saved or listed.

    The sizes, the index from a class's key to (r, i) (one dict per level,
    built on the first lookup in that level; ``class_of_word`` looks on the
    level of the word's length), equality, saving and the CLI listing
    read only ``keys`` and ``tree``.  The ``WeylElement``s of a level are
    built by ``level`` the first time that level is read, after the levels
    below it, and kept, each with its word from the tree (see the module
    docstring); with no tree, each word comes from ``minimized_word``.  ``element``, iteration
    and ``levels`` go through ``level``.
    """

    def __init__(self, lie_type, K, keys, complete, max_length=None, *, tree):
        self.lie_type = lie_type
        self.K = frozenset(K)
        self.keys = keys
        self.complete = complete
        self.max_length = max_length
        self.tree = tree
        self._cache = {}
        self._levels = []
        self._index = {}

    def _level_index(self, r: int) -> dict:
        """Packed key -> i of the classes of level r, built on first lookup."""
        index = self._index.get(r)
        if index is None:
            index = self._index[r] = {key: i for i, key in enumerate(self.keys[r], start=1)}
        return index

    def level(self, r: int) -> list[WeylElement]:
        """The elements of level r with their words, built after the levels below on first read."""
        built = self._levels
        while len(built) <= r:
            s = len(built)
            if s == 0:
                level = [WeylElement.identity(self.lie_type)]
            elif self.tree is None:
                level = [WeylElement(self.lie_type, key) for key in self.keys[s]]
            else:
                parents = built[s - 1]
                flat = self.tree[s - 1]
                level = [
                    WeylElement(self.lie_type, key, (a,) + parents[p - 1].word)
                    for key, a, p in zip(self.keys[s], flat[::2], flat[1::2])
                ]
            built.append(level)
        return built[r]

    @property
    def levels(self) -> list[list[WeylElement]]:
        """The elements of every level, ``levels[r]`` being ``level(r)``."""
        self.level(self.lmax)
        return self._levels

    # -- queries -------------------------------------------------------

    @property
    def lmax(self) -> int:
        return len(self.keys) - 1

    @property
    def total(self) -> int:
        return sum(map(len, self.keys))

    @property
    def betti(self) -> tuple[int, ...]:
        return tuple(map(len, self.keys))

    def beta(self, r: int) -> int:
        if 0 <= r < len(self.keys):
            return len(self.keys[r])
        return 0

    def element(self, r: int, i: int) -> WeylElement:
        keys = self.keys
        if not (0 <= r < len(keys) and 1 <= i <= len(keys[r])):
            raise KeyError(f"no class ({r}, {i}) in table")
        built = self._levels
        return (built[r] if r < len(built) else self.level(r))[i - 1]

    def index_of_inv_root_rows(self, rows, r: int):
        """(r, i) of the class of level r whose key is `rows`, or None."""
        if not 0 <= r < len(self.keys):
            return None
        i = self._level_index(r).get(rows)
        return None if i is None else (r, i)

    def class_of_word(self, word) -> tuple[int, int]:
        """(r, i) of the class whose element has this reduced word; r = len(word).

        Raises ValueError for a letter outside 1..n or a word that is not
        reduced, and KeyError for a reduced word of no class of the table.
        """
        word = tuple(word)
        w = WeylElement.from_word(self.lie_type, word)
        if len(w.word) != len(word):
            raise ValueError(f"word {list(word)} is not reduced")
        found = self.index_of_inv_root_rows(w.inv_root_rows, len(word))
        if found is None:
            raise KeyError(f"word {list(word)} is not a minimal representative of the table")
        return found

    def __iter__(self):
        for r, level in enumerate(self.levels):
            for i, w in enumerate(level):
                yield r, i + 1, w

    def __eq__(self, other):
        # equal keys are equal elements, and comparing them builds no element
        return (
            isinstance(other, CosetTable)
            and self.lie_type == other.lie_type
            and self.K == other.K
            and self.max_length == other.max_length
            and self.keys == other.keys
        )

    # -- serialization ---------------------------------------------------

    def _file_bytes(self) -> bytes:
        """The bytes of this table's cache file: its header and ``tree``, compact JSON."""
        obj = {
            "lie_type": str(self.lie_type),
            "K": sorted(self.K),
            "complete": self.complete,
            "max_length": self.max_length,
            "tree": self.tree,
        }
        return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()

    # The names keep "binary" because the benchmark's tracer wraps these two
    # methods by name and reads the path from their second argument.
    def save_binary(self, path):
        """Write ``_file_bytes`` atomically; ``load_binary`` accepts exactly these bytes."""
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(self._file_bytes())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load_binary(cls, path, lie_type, K, *, max_elements=DEFAULT_MAX_ELEMENTS):
        """The table of (lie_type, K), if `path` holds the bytes ``save_binary`` writes for it.

        The file is read first, so an unreadable path fails before anything
        is enumerated.  Then the table is enumerated once under
        `max_elements`, as a cold run would, and returned if the file's
        bytes are its ``_file_bytes``; any other file raises ValueError.
        """
        raw = Path(path).read_bytes()
        table = _grade(lie_type, K, None, max_elements)
        if raw != table._file_bytes():
            raise ValueError(f"{path}: corrupt coset-table cache "
                             f"(not the table of {lie_type} K={sorted(table.K)})")
        return table


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
    (the resulting table knows it is incomplete).  A negative `max_length`
    raises ValueError.

    Each level is stored as its list of keys beside the recorded tree; the
    table makes a level's elements when the level is first read.  The
    previous level's first letters, found by bisection, split it into
    blocks, and the step for letter i looks only at the blocks the module
    docstring leaves open: the full step on the blocks of i's smaller
    neighbours, and Deodhar's test alone on the blocks above i.
    """
    return _grade(lie_type, K, max_length, max_elements)


def _grade(lie_type, K, max_length, max_elements) -> CosetTable:
    """The body of ``enumerate_cosets``, which ``CosetTable.load_binary`` calls
    too: a wrapper bound to the module name then counts only the enumerations
    asked for.
    """
    K = _check_K(lie_type, K)
    if max_length is not None and max_length < 0:
        raise ValueError(f"max_length {max_length} is negative")
    # level 1 holds exactly the sigma_i with i in K, so the cap can fail
    # there before the O(n^2) set-up of the steps
    if K and max_length != 0 and 1 + len(K) > max_elements:
        raise EnumerationLimit(lie_type, K, max_elements)
    n = lie_type.rank
    pairs = reflection_pairs(lie_type)
    exits = _simple_roots_outside(n, K)
    # each letter i with its full step and the neighbours f < i of node i
    steps = [
        (i, _left_step(lie_type, i, K), [k + 1 for k, _ in pairs[i - 1] if k < i - 1])
        for i in range(1, n + 1)
    ]
    keys = [[_identity_rows(n)]]
    tree = []
    # the first letters of the last level, in order; the identity has none,
    # so it counts as n + 1, above every letter
    firsts = [n + 1]
    count = 1
    complete = True
    while True:
        if max_length is not None and len(keys) > max_length:
            complete = False
            keys = keys[: max_length + 1]
            break
        prev = keys[-1]
        m = len(prev)
        # the parents with first letter f are prev[start[f]:start[f + 1]]
        start = [bisect_left(firsts, f) for f in range(n + 2)]
        level = []
        flat = []
        for i, step, lower in steps:
            j = i - 1
            # first letter f < i: only a neighbour f of i can pass
            for f in lower:
                for p in range(start[f], start[f + 1]):
                    child = step(prev[p])
                    if child is not None:
                        level.append(child)
                        flat += (i, p + 1)
            # first letter f > i: only Deodhar's test is left
            ps = [p for p in range(start[i + 1], m) if prev[p][j] not in exits]
            level += [right_multiply_rows(prev[p], j, pairs) for p in ps]
            block = [i] * (2 * len(ps))
            block[1::2] = [p + 1 for p in ps]
            flat += block
        if not level:
            break
        count += len(level)
        if count > max_elements:
            raise EnumerationLimit(lie_type, K, max_elements)
        keys.append(level)
        tree.append(flat)
        firsts = flat[::2]
    return CosetTable(lie_type, K, keys, complete, max_length, tree=tree)
