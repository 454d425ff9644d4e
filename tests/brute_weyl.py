"""Brute-force Weyl group oracle, independent of schubert.weyl.

Elements are represented only by their weight-coordinate matrices (tuple of
rows, row k = image of omega_{k+1}), generated by plain matrix closure.
Lengths come from BFS distance in the Cayley graph, not from root counting,
so agreement with the package is a genuine cross-check.  Only
`weight_matrix`, `inverse_weight_matrix` and `unpacked_rows` read package
elements, to translate them into these terms.

The package packs each root into one int.  The tuple arithmetic it had
before, `_is_neg` and `right_multiply_rows` on tuples of coordinates, stays
here as the oracle of the packed one, together with the earlier subword
search `ascending_subword_solutions` and the tree step `built_left_step`
that builds every candidate before testing it.  `word_tree` derives a
table's (letter, parent) tree from its words, as the cache writer once did,
to check the tree the enumeration records.  `left_step` is the packed tree
step on one key that the package took per candidate before it filtered
whole root columns, and `exhaustive_tree` is the enumeration as it was
before it skipped steps by the parents' first letters: that step on every
letter and every parent.  `table_keys` reads every level's keys off a
table.
"""

from fractions import Fraction
from functools import lru_cache

from schubert.cartan import LieType, cartan_matrix
from schubert.weyl import (
    WeylElement,
    _ROOT_BITS,
    _identity_rows,
    _root_matrix,
    _simple_roots_outside,
    reflection_pairs,
    unpack_root,
)
from schubert.weyl import right_multiply_rows as packed_right_multiply


def _is_neg(vec: tuple[int, ...]) -> bool:
    # sign of a root vector: first nonzero entry decides
    for x in vec:
        if x:
            return x < 0
    return False


def right_multiply_rows(rows, j, pairs):
    """Tuple rows of w -> tuple rows of w*sigma_{j+1}; `pairs` from reflection_pairs."""
    out = list(rows)
    rj = rows[j]
    for k, c in pairs[j]:
        rk = out[k]
        out[k] = tuple(a - c * b for a, b in zip(rk, rj))
    return tuple(out)


def tuple_root_matrix(lie_type, word):
    """The root matrix of sigma_word as tuples: row k is sigma_word(alpha_{k+1})."""
    n = lie_type.rank
    pairs = reflection_pairs(lie_type)
    rows = tuple(tuple(int(k == j) for j in range(n)) for k in range(n))
    for i in word:
        rows = right_multiply_rows(rows, i - 1, pairs)
    return rows


def pack_root(vec) -> int:
    """sum_m v_m * 2^(bits * m), the package's packing of a root, written out."""
    return sum(v * 2 ** (_ROOT_BITS * m) for m, v in enumerate(vec))


def unpacked_rows(w):
    """The stored key of a package element, decoded to tuple rows."""
    return tuple(unpack_root(row, w.lie_type.rank) for row in w.inv_root_rows)


def _matmul(inner, outer):
    """Matrix of (outer o inner) in the rows-as-images convention."""
    n = len(inner)
    return tuple(
        tuple(
            sum(inner[k][t] * outer[t][s] for t in range(n)) for s in range(n)
        )
        for k in range(n)
    )


def _generator_matrices(lie_type):
    c = cartan_matrix(lie_type)
    n = lie_type.rank
    gens = []
    for i in range(n):
        gens.append(
            tuple(
                tuple(int(k == j) - (c[i][j] if k == i else 0) for j in range(n))
                for k in range(n)
            )
        )
    return gens


def reflect_root(lie_type: LieType, i: int, r: tuple[int, ...]) -> tuple[int, ...]:
    """Apply sigma_i to a vector in simple-root coordinates."""
    col = [row[i - 1] for row in cartan_matrix(lie_type)]
    s = sum(rk * ck for rk, ck in zip(r, col))
    if s == 0:
        return tuple(r)
    out = list(r)
    out[i - 1] -= s
    return tuple(out)


@lru_cache(maxsize=None)
def all_roots(lie_type: LieType):
    """All roots, as the closure of the simple roots under the simple
    reflections (in root coordinates, deterministic order)."""
    n = lie_type.rank
    simple = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    seen = dict.fromkeys(simple)
    frontier = simple
    while frontier:
        new = []
        for r in frontier:
            for i in range(1, n + 1):
                img = reflect_root(lie_type, i, r)
                if img not in seen:
                    seen[img] = None
                    new.append(img)
        frontier = new
    return tuple(seen)


def positive_roots(lie_type: LieType):
    """The roots with no negative coordinate, in the order of `all_roots`."""
    return tuple(r for r in all_roots(lie_type) if all(x >= 0 for x in r))


@lru_cache(maxsize=None)
def brute_group(lie_type: LieType):
    """dict: weight matrix -> (length, one shortest word), whole group."""
    n = lie_type.rank
    gens = _generator_matrices(lie_type)
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    info = {identity: (0, ())}
    frontier = [identity]
    while frontier:
        new = []
        for mat in frontier:
            length, word = info[mat]
            for i, g in enumerate(gens, start=1):
                # right multiplication: apply sigma_i first, then mat
                nxt = _matmul(g, mat)
                if nxt not in info:
                    info[nxt] = (length + 1, word + (i,))
                    new.append(nxt)
        frontier = new
    return info


def brute_length(lie_type, word):
    gens = _generator_matrices(lie_type)
    n = lie_type.rank
    mat = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for i in word:
        mat = _matmul(gens[i - 1], mat)
    return brute_group(lie_type)[mat][0]


def brute_matrix(lie_type, word):
    gens = _generator_matrices(lie_type)
    n = lie_type.rank
    mat = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for i in word:
        mat = _matmul(gens[i - 1], mat)
    return mat


def brute_all_reduced_words(lie_type, mat):
    """All reduced words, via left-descent recursion on BFS distances."""
    group = brute_group(lie_type)
    gens = _generator_matrices(lie_type)

    def rec(m):
        d = group[m][0]
        if d == 0:
            return [()]
        words = []
        for i, g in enumerate(gens, start=1):
            shorter = _matmul(m, g)  # sigma_i * m: apply m first, then sigma_i
            if group[shorter][0] < d:
                words.extend((i,) + tail for tail in rec(shorter))
        return words

    return rec(mat)


def brute_right_descents(lie_type, word):
    """The j with l(w sigma_j) < l(w) for w = sigma_word, from BFS distances."""
    n = lie_type.rank
    length = brute_length(lie_type, word)
    return {j for j in range(1, n + 1) if brute_length(lie_type, tuple(word) + (j,)) < length}


def brute_minimal_reps(lie_type, K):
    """dict length -> sorted lex-least reduced words of the minimal coset reps.

    A representative is minimal when it has no right descent outside K, and
    its word is the least of all its reduced words.
    """
    group = brute_group(lie_type)
    gens = _generator_matrices(lie_type)
    n = lie_type.rank
    out = {}
    for mat, (length, _) in group.items():
        # _matmul(gens[j - 1], mat) is mat * sigma_j
        if all(j in K or group[_matmul(gens[j - 1], mat)][0] > length
               for j in range(1, n + 1)):
            out.setdefault(length, []).append(min(brute_all_reduced_words(lie_type, mat)))
    return {r: sorted(words) for r, words in sorted(out.items())}


@lru_cache(maxsize=None)
def _inverse_cartan(lie_type):
    """C^-1 over the rationals, by Gauss-Jordan elimination."""
    c = cartan_matrix(lie_type)
    n = lie_type.rank
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(c)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _root_to_weight(lie_type, root_rows):
    """C^-1 . root_rows . C, integrality checked.

    Row k of a root matrix is the image of alpha_{k+1} in root coordinates
    and alpha_t = sum_s C[t][s] omega_s, so C . W = root_rows . C for the
    weight matrix W (row k = image of omega_{k+1} in weight coordinates).
    """
    # _matmul(a, b) is the ordinary product a . b
    rc = _matmul(root_rows, cartan_matrix(lie_type))
    mat = _matmul(_inverse_cartan(lie_type), rc)
    if any(x.denominator != 1 for row in mat for x in row):
        raise ValueError(f"non-integral weight matrix for {root_rows}")
    return tuple(tuple(int(x) for x in row) for row in mat)


def weight_matrix(w):
    """The weight matrix of a package element, from its stored word.

    The root matrix of w is folded from ``w.word`` by the package's
    ``_root_matrix``, the fold behind ``from_word``, and decoded.
    """
    n = w.lie_type.rank
    rows = tuple(unpack_root(row, n) for row in _root_matrix(w.lie_type, w.word))
    return _root_to_weight(w.lie_type, rows)


def inverse_weight_matrix(w):
    """The weight matrix of w^-1, from the element's stored ``inv_root_rows``."""
    return _root_to_weight(w.lie_type, unpacked_rows(w))


def ascending_subword_solutions(lie_type, letters, u):
    """0-based position tuples I, |I| = l(u), whose subword of `letters` is u.

    The walk starts at the identity and extends a partial product w' by
    position p exactly when w'(alpha_{letters[p]}) > 0, since only stepwise
    length-increasing products reach length l(u) in l(u) steps; each leaf is
    compared with the root matrix of u folded from its word.
    """
    target = tuple_root_matrix(lie_type, u.word)
    k = len(u.word)
    m = len(letters)
    pairs = reflection_pairs(lie_type)
    out = []

    def rec(pos, rows, chosen, need):
        if need == 0:
            if rows == target:
                out.append(chosen)
            return
        for p in range(pos, m - need + 1):
            j0 = letters[p] - 1
            if not _is_neg(rows[j0]):
                rec(p + 1, right_multiply_rows(rows, j0, pairs), chosen + (p,), need - 1)

    rec(0, tuple_root_matrix(lie_type, ()), (), k)
    return out


def built_left_step(u, i, K):
    """The child sigma_i * u of u in the tree of W^P, or None, on tuple rows.

    Decodes u's key, builds the candidate's root matrix, then asks whether
    some b < i is a left descent of it.  sigma_i * u is longer and still in
    W^P when u^{-1}(alpha_i) is positive and not a simple root alpha_j with
    j not in K.
    """
    rows = unpacked_rows(u)
    row = rows[i - 1]
    if _is_neg(row) or (sum(row) == 1 and row.index(1) + 1 not in K):
        return None
    inv = right_multiply_rows(rows, i - 1, reflection_pairs(u.lie_type))
    if any(_is_neg(inv[b]) for b in range(i - 1)):
        return None
    return WeylElement(u.lie_type, tuple(map(pack_root, inv)), (i,) + u.word)


def left_step(lie_type, i, K):
    """The tree step for letter i: a function taking u's key to its child's, or None.

    Keys are packed rows (``WeylElement.inv_root_rows``).  The child
    sigma_i * u is longer than u, still minimal for K and has i as its
    least left descent, so i followed by u's word is its lex-least reduced
    word.  The step builds neither an element nor a word.

    The least-descent test is decided on u's own rows before the child's
    key is built.  Row b of the child is u's row b minus
    C[b][i-1] * u^{-1}(alpha_i) (0-based b); C[b][i-1] is 0 off the
    neighbours of node i and negative on them, and u^{-1}(alpha_i) > 0
    once the length and minimality tests hold.  So the child has no left
    descent b < i exactly when rows[b] >= C[b][i-1] * rows[i-1] for each
    such b.  Unlike the package, it tests every b < i and Deodhar's exits
    on every candidate, whatever u's first letter.
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
        return packed_right_multiply(rows, j, pairs)

    return step


def table_keys(table):
    """The keys of every level of a table, ``table_keys(t)[r]`` being ``t.level_keys(r)``."""
    return [table.level_keys(r) for r in range(table.lmax + 1)]


def word_tree(table):
    """The table's lex-least-word tree, found again from the words of its classes.

    Level r >= 1 is one flat list [a1, p1, a2, p2, ...]: the word of class
    (r, i) is a_i followed by the word of its parent (r-1, p_i), p 1-based.
    """
    tree = []
    for prev, level in zip(table.levels, table.levels[1:]):
        parent = {u.word: p for p, u in enumerate(prev, start=1)}
        tree.append([x for w in level for x in (w.word[0], parent[w.word[1:]])])
    return tree


def exhaustive_tree(lie_type, K, max_length=None):
    """(keys, tree) of W^P by the full step on every letter and every parent.

    Level r+1 lists sigma_i * u for i = 1..n and then each u of level r in
    order, wherever ``left_step`` accepts it, so it is the (letter, parent)
    order ``enumerate_cosets`` records, found without its pruning.
    """
    n = lie_type.rank
    steps = [left_step(lie_type, i, K) for i in range(1, n + 1)]
    keys = [[_identity_rows(n)]]
    tree = []
    while max_length is None or len(keys) <= max_length:
        level, flat = [], []
        for a, step in enumerate(steps, start=1):
            for p, u in enumerate(keys[-1], start=1):
                child = step(u)
                if child is not None:
                    level.append(child)
                    flat += (a, p)
        if not level:
            break
        keys.append(level)
        tree.append(flat)
    return keys, tree
