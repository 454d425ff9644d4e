"""Weyl groups, reduced words, and length-graded minimal coset representatives.

A Weyl group element is stored as three integer matrices (tuples of rows):

* ``weight_rows``: row k is w(omega_{k+1}) in fundamental-weight coordinates.
  This is the canonical key: two elements are equal iff these agree.
* ``root_rows``: row k is w(alpha_{k+1}) in simple-root coordinates.  Column
  signs give right descents: l(w sigma_j) < l(w) iff w(alpha_j) < 0.
* ``inv_root_rows``: the root matrix of w^{-1}.  Row signs give left
  descents: l(sigma_i w) < l(w) iff w^{-1}(alpha_i) < 0.

Multiplying by a simple reflection on either side touches each matrix in
O(n) per row, so group operations stay cheap and exact.

``enumerate_cosets`` grades the minimal length representatives of the left
cosets w * W_P, where W_P is generated by the simple reflections *not* in K,
by length:  W^{r+1} is obtained from W^r by left multiplication w' =
sigma_i * u with l(w') = l(u) + 1, keeping the representatives that stay
minimal and deduplicating by canonical form.  (Minimal representatives are
closed under removing left descents, so every representative is reached
this way; the stored word (i,) + word(u) is the lexicographically smallest
reduced word of w'.)
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path

from .cartan import LieType, cartan_matrix, positive_roots

DEFAULT_MAX_ELEMENTS = 5_000_000


class EnumerationLimit(RuntimeError):
    """Raised when a coset enumeration would exceed its element budget."""


@lru_cache(maxsize=None)
def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


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


def _is_neg(vec: tuple[int, ...]) -> bool:
    # sign of a root vector: first nonzero entry decides
    for x in vec:
        if x:
            return x < 0
    return False


def right_multiply_rows(rows, j, pairs):
    """rows of w -> rows of w*sigma_{j+1}; `pairs` from reflection_pairs."""
    out = list(rows)
    rj = rows[j]
    for k, c in pairs[j]:
        rk = out[k]
        out[k] = tuple(a - c * b for a, b in zip(rk, rj))
    return tuple(out)


class WeylElement:
    """An element of the Weyl group of `lie_type` (exact matrix form)."""

    __slots__ = ("lie_type", "weight_rows", "root_rows", "inv_root_rows",
                 "_word", "_length", "_hash")

    def __init__(self, lie_type, weight_rows, root_rows, inv_root_rows, word=None):
        self.lie_type = lie_type
        self.weight_rows = weight_rows
        self.root_rows = root_rows
        self.inv_root_rows = inv_root_rows
        self._word = word
        self._length = None
        self._hash = hash((lie_type, weight_rows))

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, lie_type: LieType) -> "WeylElement":
        e = _identity_rows(lie_type.rank)
        return cls(lie_type, e, e, e, word=())

    @classmethod
    def simple_reflection(cls, lie_type: LieType, i: int) -> "WeylElement":
        n = lie_type.rank
        if not 1 <= i <= n:
            raise ValueError(f"reflection index {i} out of range 1..{n}")
        c = cartan_matrix(lie_type)
        i0 = i - 1
        e = _identity_rows(n)
        weight = tuple(
            tuple(int(k == j) - (c[i0][j] if k == i0 else 0) for j in range(n))
            for k in range(n)
        )
        root = tuple(
            tuple(int(k == j) - (c[k][i0] if j == i0 else 0) for j in range(n))
            for k in range(n)
        )
        return cls(lie_type, weight, root, root, word=(i,))

    @classmethod
    def from_word(cls, lie_type: LieType, word) -> "WeylElement":
        word = tuple(word)
        n = lie_type.rank
        if word and not (1 <= min(word) and max(word) <= n):
            raise ValueError(f"word {list(word)} has a letter outside 1..{n}")
        w = cls.identity(lie_type)
        for i in word:
            w = w.right_mul_simple(i)
        return w

    # -- group operations --------------------------------------------

    def right_mul_simple(self, j: int) -> "WeylElement":
        """self * sigma_j."""
        lt = self.lie_type
        c = cartan_matrix(lt)
        n = lt.rank
        j0 = j - 1
        pairs = reflection_pairs(lt)

        root = right_multiply_rows(self.root_rows, j0, pairs)
        # (w sigma_j)(omega_k) = w(omega_k) for k != j, minus w(alpha_j) at k = j
        wr = list(self.weight_rows)
        walpha_j = [0] * n
        for t in range(n):
            ct = c[j0][t]
            if ct:
                row = wr[t]
                for s in range(n):
                    walpha_j[s] += ct * row[s]
        wr[j0] = tuple(a - b for a, b in zip(wr[j0], walpha_j))
        # (w sigma_j)^{-1} = sigma_j w^{-1}: left-reflect every row of inv
        inv = tuple(_reflect_root_rows(self.inv_root_rows, j0, c))
        return WeylElement(lt, tuple(wr), root, inv)

    def left_mul_simple(self, i: int) -> "WeylElement":
        """sigma_i * self."""
        lt = self.lie_type
        c = cartan_matrix(lt)
        i0 = i - 1
        pairs = reflection_pairs(lt)

        # weight rows: reflect each image vector
        weight = tuple(
            tuple(v[k] - v[i0] * c[i0][k] for k in range(len(v))) if v[i0] else v
            for v in self.weight_rows
        )
        root = tuple(_reflect_root_rows(self.root_rows, i0, c))
        inv = right_multiply_rows(self.inv_root_rows, i0, pairs)
        return WeylElement(lt, weight, root, inv)

    def multiply(self, other: "WeylElement") -> "WeylElement":
        """self * other (apply other first, then self)."""
        if self.lie_type != other.lie_type:
            raise ValueError("cannot multiply elements of different Lie types")
        weight = _mat_compose(self.weight_rows, other.weight_rows)
        root = _mat_compose(self.root_rows, other.root_rows)
        inv = _mat_compose(other.inv_root_rows, self.inv_root_rows)
        return WeylElement(self.lie_type, weight, root, inv)

    __mul__ = multiply

    def inverse(self) -> "WeylElement":
        word = tuple(reversed(self.word))
        return WeylElement.from_word(self.lie_type, word)

    # -- actions ------------------------------------------------------

    def apply_to_weight(self, v) -> tuple[int, ...]:
        n = self.lie_type.rank
        out = [0] * n
        for k, vk in enumerate(v):
            if vk:
                row = self.weight_rows[k]
                for s in range(n):
                    out[s] += vk * row[s]
        return tuple(out)

    def apply_to_root(self, r) -> tuple[int, ...]:
        n = self.lie_type.rank
        out = [0] * n
        for k, rk in enumerate(r):
            if rk:
                row = self.root_rows[k]
                for s in range(n):
                    out[s] += rk * row[s]
        return tuple(out)

    # -- length, descents, words --------------------------------------

    def length(self) -> int:
        """Number of positive roots sent negative."""
        if self._length is None:
            self._length = sum(
                1 for r in positive_roots(self.lie_type) if _is_neg(self.apply_to_root(r))
            )
        return self._length

    def is_identity(self) -> bool:
        return self.weight_rows == _identity_rows(self.lie_type.rank)

    def has_right_descent(self, j: int) -> bool:
        """True iff l(w sigma_j) < l(w), i.e. w(alpha_j) < 0."""
        return _is_neg(self.root_rows[j - 1])

    def has_left_descent(self, i: int) -> bool:
        """True iff l(sigma_i w) < l(w), i.e. w^{-1}(alpha_i) < 0."""
        return _is_neg(self.inv_root_rows[i - 1])

    def reduced_word(self) -> tuple[int, ...]:
        """A deterministic reduced word (strips the smallest right descent)."""
        n = self.lie_type.rank
        u = self
        suffix = []
        while True:
            for j in range(1, n + 1):
                if u.has_right_descent(j):
                    suffix.append(j)
                    u = u.right_mul_simple(j)
                    break
            else:
                break
        return tuple(reversed(suffix))

    def minimized_word(self) -> tuple[int, ...]:
        """The lexicographically smallest reduced word.

        The first letter of any reduced word is a left descent, and every
        left descent starts one, so the lex-least word begins with the
        smallest left descent and recurses.
        """
        n = self.lie_type.rank
        u = self
        letters = []
        while True:
            for i in range(1, n + 1):
                if u.has_left_descent(i):
                    letters.append(i)
                    u = u.left_mul_simple(i)
                    break
            else:
                break
        return tuple(letters)

    @property
    def word(self) -> tuple[int, ...]:
        """The minimized word, cached."""
        if self._word is None:
            self._word = self.minimized_word()
        return self._word

    def all_reduced_words(self):
        """Every reduced word of this element (exponential; small lengths only)."""
        if self.is_identity():
            return [()]
        out = []
        n = self.lie_type.rank
        for i in range(1, n + 1):
            if self.has_left_descent(i):
                for tail in self.left_mul_simple(i).all_reduced_words():
                    out.append((i,) + tail)
        return out

    def is_minimal_rep(self, K) -> bool:
        """Minimal length in the coset w * W_P, W_P = <sigma_j : j not in K>."""
        n = self.lie_type.rank
        return all(
            j in K or not self.has_right_descent(j) for j in range(1, n + 1)
        )

    # -- plumbing ------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.lie_type == other.lie_type
            and self.weight_rows == other.weight_rows
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"WeylElement({self.lie_type}, word={list(self.word)})"

    def __getstate__(self):
        return (self.lie_type, self.weight_rows, self.root_rows,
                self.inv_root_rows, self._word)

    def __setstate__(self, state):
        self.__init__(*state[:4], word=state[4])


def _reflect_root_rows(rows, i0, c):
    # apply sigma_{i0+1} (on the left) to every row, in root coordinates
    for row in rows:
        s = 0
        for t, x in enumerate(row):
            if x:
                s += x * c[t][i0]
        if s:
            new = list(row)
            new[i0] -= s
            yield tuple(new)
        else:
            yield row


def _mat_compose(outer, inner):
    """Rows of (outer o inner): row k = sum_t inner[k][t] * outer[t]."""
    n = len(inner)
    out = []
    for row in inner:
        acc = [0] * n
        for t, x in enumerate(row):
            if x:
                orow = outer[t]
                for s in range(n):
                    acc[s] += x * orow[s]
        out.append(tuple(acc))
    return tuple(out)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _left_step(u: WeylElement, i: int, K) -> WeylElement | None:
    """sigma_i * u if it is longer than u and still minimal for K, else None.

    This is the one step of ``enumerate_cosets``; ``CosetTable.load_binary``
    checks each cached class against it.
    """
    if _is_neg(u.inv_root_rows[i - 1]):
        return None
    w = u.left_mul_simple(i)
    return w if w.is_minimal_rep(K) else None


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
        self._index = {}
        self._root_index = {}
        for r, level in enumerate(levels):
            for i, w in enumerate(level):
                self._index[w.weight_rows] = (r, i + 1)
                self._root_index[w.root_rows] = (r, i + 1)
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
            return self._index[w.weight_rows]
        except KeyError:
            raise KeyError(f"{w!r} is not a representative in this table") from None

    def index_of_root_rows(self, rows):
        return self._root_index.get(rows)

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

    def json_obj(self):
        return {
            "lie_type": str(self.lie_type),
            "K": sorted(self.K),
            "complete": self.complete,
            "max_length": self.max_length,
            "beta": list(self.betti),
            "elements": [
                {"r": r, "i": i, "word": list(w.word)} for r, i, w in self
            ],
        }

    # The names keep "binary" because the benchmark's tracer wraps these two
    # methods by name and reads the path from their second argument.
    def save_binary(self, path):
        """Write the ``json_obj`` of this table, compactly and atomically."""
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(
                json.dumps(self.json_obj(), separators=(",", ":"), sort_keys=True)
            )
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load_binary(cls, path):
        """Read a table written by ``save_binary``, re-checking every class.

        Each class is rebuilt from its parent in the previous level by the
        enumeration step, so a file that does not describe minimal
        representatives with their minimized words raises ValueError.
        """
        try:
            return cls._from_json_obj(json.loads(Path(path).read_bytes()))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: corrupt coset-table cache ({exc})") from None

    @classmethod
    def _from_json_obj(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        lie_type, K, complete, max_length, beta, elements = (
            obj.get(k) for k in
            ("lie_type", "K", "complete", "max_length", "beta", "elements")
        )
        if not isinstance(lie_type, str):
            raise ValueError("lie_type is not a string")
        lie_type = LieType.parse(lie_type)
        if not (isinstance(K, list) and all(_is_int(j) for j in K)):
            raise ValueError("K is not a list of integers")
        K = _check_K(lie_type, K)
        if not isinstance(complete, bool):
            raise ValueError("complete is not a boolean")
        if not (max_length is None or _is_int(max_length)):
            raise ValueError("max_length is not an integer")
        if not isinstance(elements, list):
            raise ValueError("elements is not a list")
        words = []  # words[r] lists the words of level r in file order
        for e in elements:
            if not isinstance(e, dict):
                raise ValueError("an element is not an object")
            r, i, word = e.get("r"), e.get("i"), e.get("word")
            if not (isinstance(word, list) and all(_is_int(a) for a in word)):
                raise ValueError(f"class ({r}, {i}): word is not a list of integers")
            if r == len(words):
                words.append([])
            if not (_is_int(r) and _is_int(i)
                    and r == len(words) - 1 and i == len(words[-1]) + 1):
                raise ValueError(f"class ({r}, {i}) out of position")
            words[-1].append(tuple(word))
        if beta != [len(level) for level in words]:
            raise ValueError(f"beta {beta} disagrees with the elements")
        if not words or words[0] != [()]:
            raise ValueError("level 0 is not the identity alone")

        n = lie_type.rank
        levels = [[WeylElement.identity(lie_type)]]
        for r, level_words in enumerate(words[1:], start=1):
            parents = {u.word: u for u in levels[-1]}
            level = []
            for word in level_words:
                if level and word <= level[-1].word:
                    raise ValueError(f"level {r}: words not strictly increasing")
                u = parents.get(word[1:]) if len(word) == r else None
                if u is None:
                    raise ValueError(f"{list(word)}: tail is not a class of level {r - 1}")
                a = word[0]
                if not 1 <= a <= n:
                    raise ValueError(f"{list(word)}: letter {a} outside 1..{n}")
                w = _left_step(u, a, K)
                if w is None:
                    raise ValueError(f"{list(word)}: not a reduced minimal representative")
                if any(w.has_left_descent(b) for b in range(1, a)):
                    raise ValueError(f"{list(word)}: not the minimized word")
                w._word = word
                level.append(w)
            levels.append(level)
        return cls(lie_type, K, levels, complete, max_length)

    def __getstate__(self):
        return {
            "lie_type": self.lie_type,
            "K": self.K,
            "levels": self.levels,
            "complete": self.complete,
            "max_length": self.max_length,
        }

    def __setstate__(self, state):
        self.__init__(
            state["lie_type"], state["K"], state["levels"],
            state["complete"], state["max_length"],
        )


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
        new = {}
        for i in range(1, n + 1):
            for u in prev:
                w = _left_step(u, i, K)
                if w is not None and w.weight_rows not in new:
                    w._word = (i,) + u.word
                    new[w.weight_rows] = w
        if not new:
            break
        level = sorted(new.values(), key=lambda w: w._word)
        count += len(level)
        if count > max_elements:
            raise EnumerationLimit(
                f"enumeration of {lie_type} with K={sorted(K)} exceeds "
                f"{max_elements} representatives"
            )
        levels.append(level)
    return CosetTable(lie_type, K, levels, complete, max_length)
