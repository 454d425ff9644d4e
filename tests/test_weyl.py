"""Tests for Weyl elements, words, and coset enumeration."""

import json
import sys
import tempfile
import tracemalloc
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from schubert.cartan import LieType
from schubert.cli import main
from schubert.weyl import (
    CosetTable,
    EnumerationLimit,
    WeylElement,
    _left_step,
    _root_matrix,
    enumerate_cosets,
    unpack_root,
)

from brute_weyl import (
    _is_neg,
    all_roots,
    brute_all_reduced_words,
    brute_group,
    brute_length,
    brute_matrix,
    brute_minimal_reps,
    brute_right_descents,
    built_left_step,
    exhaustive_tree,
    word_tree,
    inverse_weight_matrix,
    pack_root,
    positive_roots,
    reflect_root,
    unpacked_rows,
    weight_matrix,
)
from listing import cli_listing, listing_obj

A2 = LieType.parse("A2")
A3 = LieType.parse("A3")
B2 = LieType.parse("B2")
B3 = LieType.parse("B3")
C3 = LieType.parse("C3")
D4 = LieType.parse("D4")
G2 = LieType.parse("G2")
F4 = LieType.parse("F4")
E6 = LieType.parse("E6")


def wd(lt, *letters):
    return WeylElement.from_word(lt, letters)


# ---------------------------------------------------------------- packing

PACKING_TYPES = (
    [f"A{n}" for n in range(1, 10)] + [f"B{n}" for n in range(2, 10)]
    + [f"C{n}" for n in range(3, 10)] + [f"D{n}" for n in range(4, 10)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", PACKING_TYPES)
def test_packed_roots_match_tuple_oracle(name):
    # every root packs and unpacks to itself, keeps its sign, and sigma_j
    # acts on the packed int as the packed image of the oracle's reflection
    lt = LieType.parse(name)
    n = lt.rank
    reflections = [_root_matrix(lt, (j,)) for j in range(1, n + 1)]
    for root in all_roots(lt):
        packed = pack_root(root)
        assert unpack_root(packed, n) == root
        assert (packed < 0) == _is_neg(root)
        for j, rows in enumerate(reflections, start=1):
            image = sum(v * row for v, row in zip(root, rows))
            assert image == pack_root(reflect_root(lt, j, root)), (root, j)


# ---------------------------------------------------------------- elements


@pytest.mark.parametrize(
    "lt,order",
    [(A2, 6), (A3, 24), (B2, 8), (B3, 48), (C3, 48), (G2, 12), (D4, 192), (F4, 1152)],
)
def test_group_orders(lt, order):
    assert len(brute_group(lt)) == order
    assert enumerate_cosets(lt, set(range(1, lt.rank + 1))).total == order


@pytest.mark.parametrize("lt", [A3, B3, G2])
def test_length_matches_cayley_distance(lt):
    for mat, (dist, word) in brute_group(lt).items():
        w = WeylElement.from_word(lt, word)
        assert weight_matrix(w) == mat
        assert inverse_weight_matrix(w) == brute_matrix(lt, word[::-1])
        assert len(w.word) == dist


@pytest.mark.parametrize("lt", [A3, B3, G2, F4])
def test_inverse_key_is_faithful(lt):
    # the brute group is generated on weights; distinct elements there must
    # have distinct inverse root matrices, or inv_root_rows could not be the key
    group = brute_group(lt)
    keys = {WeylElement.from_word(lt, word).inv_root_rows for _, word in group.values()}
    assert len(keys) == len(group)


def test_identity_basics():
    e = WeylElement.identity(A2)
    assert len(e.word) == 0
    assert unpacked_rows(e) == ((1, 0), (0, 1))
    assert e.minimized_word() == ()
    s1 = WeylElement.from_word(A2, (1,))
    assert WeylElement.from_word(A2, (1, 1)) == e
    # sigma_1 is its own inverse
    assert inverse_weight_matrix(s1) == weight_matrix(s1) == brute_matrix(A2, (1,))


def test_longest_element_length():
    for lt in (A3, B3, F4):
        full = enumerate_cosets(lt, set(range(1, lt.rank + 1)))
        assert full.lmax == len(positive_roots(lt))
        assert full.beta(full.lmax) == 1


@pytest.mark.parametrize("lt", [A3, B2, G2])
def test_minimized_word_is_lex_least(lt):
    for mat in brute_group(lt):
        words = brute_all_reduced_words(lt, mat)
        w = WeylElement.from_word(lt, words[0])
        assert w.minimized_word() == min(words)
        assert all(WeylElement.from_word(lt, word) == w for word in words)


def test_minimized_word_examples():
    # longest element of A2
    assert wd(A2, 2, 1, 2).minimized_word() == (1, 2, 1)
    assert wd(A2, 1, 2, 1).minimized_word() == (1, 2, 1)
    # the F4 class used throughout: sigma_3 sigma_2 sigma_1
    assert wd(F4, 3, 2, 1).minimized_word() == (3, 2, 1)


def test_apply_actions_match_matrices():
    w = wd(F4, 3, 2, 1)
    assert weight_matrix(w) == brute_matrix(F4, (3, 2, 1))
    assert inverse_weight_matrix(w) == brute_matrix(F4, (1, 2, 3))
    # the element keyed by the root matrix of w is w^-1
    winv = WeylElement(F4, _root_matrix(F4, w.word))
    assert winv == wd(F4, 1, 2, 3)
    assert weight_matrix(winv) == brute_matrix(F4, (1, 2, 3))


@given(
    lt=st.sampled_from([A2, A3, B3, G2, F4]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_word_properties(lt, data):
    n = lt.rank
    word = tuple(data.draw(st.lists(st.integers(1, n), max_size=8)))
    w = WeylElement.from_word(lt, word)
    assert len(w.word) <= len(word)
    assert (len(w.word) - len(word)) % 2 == 0
    mw = w.minimized_word()
    assert len(mw) == len(w.word)
    assert WeylElement.from_word(lt, mw) == w
    assert weight_matrix(w) == brute_matrix(lt, word)
    # the stored matrix is that of w^-1: the brute model of the reversed word
    assert inverse_weight_matrix(w) == brute_matrix(lt, word[::-1])
    winv = WeylElement(lt, _root_matrix(lt, w.word))
    assert winv == WeylElement.from_word(lt, word[::-1])
    assert len(winv.word) == len(w.word)
    # simple steps on either side agree with the brute model of the longer word
    i = data.draw(st.integers(1, n))
    assert weight_matrix(WeylElement.from_word(lt, word + (i,))) == brute_matrix(lt, word + (i,))
    assert weight_matrix(WeylElement.from_word(lt, (i,) + word)) == brute_matrix(lt, (i,) + word)
    # row j of inv_root_rows is negative exactly when j is a left descent
    length = brute_length(lt, word)
    assert [min(row) < 0 for row in unpacked_rows(w)] == [
        brute_length(lt, (j,) + word) < length for j in range(1, n + 1)
    ]


@given(lt=st.sampled_from([A3, B3]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_triangle_inequality(lt, data):
    n = lt.rank
    u = WeylElement.from_word(lt, data.draw(st.lists(st.integers(1, n), max_size=6)))
    v = WeylElement.from_word(lt, data.draw(st.lists(st.integers(1, n), max_size=6)))
    uv = WeylElement.from_word(lt, u.word + v.word)
    assert weight_matrix(uv) == brute_matrix(lt, u.word + v.word)
    assert len(uv.word) <= len(u.word) + len(v.word)


def test_descents():
    w = wd(A2, 1, 2)  # sigma_1 sigma_2
    assert brute_right_descents(A2, w.word) == {2}
    # w^-1 = sigma_2 sigma_1 sends alpha_1 to -(alpha_1 + alpha_2), alpha_2 to alpha_1
    assert unpacked_rows(w) == ((-1, -1), (1, 0))


# ---------------------------------------------------------------- cosets


def test_enumerate_full_flag_a2():
    table = enumerate_cosets(A2, {1, 2})
    assert table.betti == (1, 2, 2, 1)
    assert [w.word for _, _, w in table] == [
        (), (1,), (2,), (1, 2), (2, 1), (1, 2, 1),
    ]
    assert table.complete


def test_enumerate_trivial_k():
    table = enumerate_cosets(F4, set())
    assert table.betti == (1,)
    assert table.element(0, 1) == WeylElement.identity(F4)


def test_enumerate_f4_p1():
    table = enumerate_cosets(F4, {1})
    assert table.total == 24
    assert table.lmax == 15
    assert table.betti == (1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1)
    # every stored word is the minimized word and has the right length
    for r, i, w in table:
        assert w.word == w.minimized_word()
        assert len(w.word) == r
        assert brute_right_descents(F4, w.word) <= {1}
    # words at each level are lexicographically sorted
    for level in table.levels:
        words = [w.word for w in level]
        assert words == sorted(words)


def test_enumerate_e6_p2():
    table = enumerate_cosets(E6, {2})
    assert table.total == 72
    assert table.lmax == 21
    assert table.betti == tuple(reversed(table.betti))


@pytest.mark.parametrize(
    "lt,K",
    [
        (A3, {2}), (B3, {1}), (B3, {3}), (C3, {1}), (G2, {1}), (G2, {2}), (D4, {2}),
        (A3, {1, 2, 3}), (B3, {1, 2, 3}), (G2, {1, 2}),
    ],
)
def test_enumerate_matches_brute_minimal_reps(lt, K):
    # each level lists the lex-least reduced words of the brute minimal
    # representatives of that length, in order
    table = enumerate_cosets(lt, K)
    brute = brute_minimal_reps(lt, K)
    assert {r: [w.word for w in level] for r, level in enumerate(table.levels)} == brute


@pytest.mark.parametrize("lt,K", [(A3, {2}), (B3, {3}), (G2, {1, 2}), (D4, {2})])
def test_left_step_matches_brute(lt, K):
    # sigma_i * u is a child exactly when it is longer, minimal and has
    # (i,) + word(u) as its lex-least reduced word
    for level in enumerate_cosets(lt, K).levels:
        for u in level:
            for i in range(1, lt.rank + 1):
                word = (i,) + u.word
                child = brute_length(lt, word) == len(word) and (
                    brute_right_descents(lt, word) <= K
                ) and min(brute_all_reduced_words(lt, brute_matrix(lt, word))) == word
                rows = _left_step(lt, i, K)(u.inv_root_rows)
                assert (rows is not None) == child, (u.word, i)
                if child:
                    # the key the step returns is that of w^-1
                    w = WeylElement(lt, rows)
                    assert w.minimized_word() == word
                    assert inverse_weight_matrix(w) == brute_matrix(lt, word[::-1])


@pytest.mark.parametrize(
    "lt,K",
    [(B3, {1, 2, 3}), (C3, {1, 2, 3}), (G2, {1, 2}), (F4, {1, 2, 3, 4}), (E6, {2})],
    ids=["B3/T", "C3/T", "G2/T", "F4/T", "E6/P2"],
)
def test_left_step_matches_built_step(lt, K):
    # the packed step that tests u's rows before building agrees with the
    # tuple oracle that builds every candidate first, on every class and letter
    def key(w):
        return None if w is None else (unpacked_rows(w), w.word)

    table = enumerate_cosets(lt, K)
    steps = [_left_step(lt, i, K) for i in range(1, lt.rank + 1)]
    children = 0
    for _, _, u in table:
        for i, step in enumerate(steps, start=1):
            expected = key(built_left_step(u, i, K))
            got = step(u.inv_root_rows)
            assert key(None if got is None else WeylElement(lt, got)) == expected, (u.word, i)
            children += expected is not None
    assert children == table.total - 1


RANK5_TYPES = (
    [f"A{n}" for n in range(1, 6)] + [f"B{n}" for n in range(2, 6)]
    + ["C3", "C4", "C5", "D4", "D5", "F4", "G2"]
)


def _assert_matches_exhaustive(lt, K):
    for max_length in (None, 0, 1, 5):
        table = enumerate_cosets(lt, K, max_length=max_length)
        assert (table.keys, table.tree) == exhaustive_tree(lt, K, max_length), (K, max_length)


@pytest.mark.parametrize("name", RANK5_TYPES)
def test_enumerate_matches_exhaustive_tree(name):
    # skipping steps by the parents' first letters leaves the keys and the
    # tree of trying every letter on every parent, for K empty, each
    # singleton, one pair and all nodes, complete and truncated
    lt = LieType.parse(name)
    n = lt.rank
    Ks = {frozenset(), frozenset({1, n}), frozenset(range(1, n + 1))}
    Ks |= {frozenset({k}) for k in range(1, n + 1)}
    for K in sorted(Ks, key=sorted):
        _assert_matches_exhaustive(lt, K)


@pytest.mark.parametrize(
    "name,K", [("E6", range(1, 7)), ("E6", {2}), ("E7", {2}), ("E7", {7})],
    ids=["E6/T", "E6/P2", "E7/P2", "E7/P7"],
)
def test_enumerate_matches_exhaustive_tree_on_e_types(name, K):
    _assert_matches_exhaustive(LieType.parse(name), K)


def test_enumeration_takes_the_full_step_about_once_per_class(monkeypatch):
    # on E6/T the full step runs once per parent whose first letter is a
    # smaller neighbour of the letter, about once per class, where trying
    # every letter on every parent runs it 6 * 51,840 times
    calls = []

    def counted(lie_type, i, K):
        step = _left_step(lie_type, i, K)

        def counted_step(rows):
            calls.append(i)
            return step(rows)

        return counted_step

    monkeypatch.setattr("schubert.weyl._left_step", counted)
    monkeypatch.setattr("brute_weyl._left_step", counted)
    table = enumerate_cosets(E6, range(1, 7))
    assert table.total == 51840
    assert len(calls) <= 51840
    del calls[:]
    exhaustive_tree(E6, range(1, 7))
    assert len(calls) == 311040


def test_minimal_rep_examples():
    e = WeylElement.identity(F4)
    # sigma_1 is minimal for K={1}; sigma_2 lies in W_P
    assert _left_step(F4, 1, {1})(e.inv_root_rows) == wd(F4, 1).inv_root_rows
    assert _left_step(F4, 2, {1})(e.inv_root_rows) is None
    assert brute_right_descents(F4, (1,)) <= {1}
    assert not brute_right_descents(F4, (2,)) <= {1}
    assert enumerate_cosets(F4, set()).levels == [[e]]


def test_poincare_duality_full_flag():
    for lt in (A3, B3):
        table = enumerate_cosets(lt, set(range(1, lt.rank + 1)))
        assert table.betti == tuple(reversed(table.betti))


def test_parabolic_order_factorization():
    # |W(F4)| = |W^K| * |W(C3)| for K = {1}
    assert enumerate_cosets(F4, {1}).total * len(brute_group(C3)) == 1152


def test_enumeration_is_deterministic():
    t1 = enumerate_cosets(F4, {1})
    t2 = enumerate_cosets(F4, {1})
    assert t1 == t2


def test_enumeration_hashes_lie_type_a_bounded_number_of_times(monkeypatch):
    # the step binds its letter's data once, and an element hashes its key
    # alone, so the count does not grow with the 1,152 classes of F4/T
    calls = []
    real = LieType.__hash__

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(LieType, "__hash__", counted)
    table = enumerate_cosets(LieType.parse("F4"), {1, 2, 3, 4})
    assert table.total == 1152
    assert len(calls) <= 50


def test_memory_guard():
    with pytest.raises(EnumerationLimit):
        enumerate_cosets(F4, {1}, max_elements=10)


def test_cap_exceeded_by_level_one_fails_before_the_steps(monkeypatch):
    # level 1 of A3000/T has 3000 classes; the steps' set-up is O(n^2)
    def no_steps(*args):
        raise AssertionError("steps built for an enumeration over the cap at level 1")

    monkeypatch.setattr("schubert.weyl._left_step", no_steps)
    monkeypatch.setattr("schubert.weyl.reflection_pairs", no_steps)
    a3000 = LieType.parse("A3000")
    with pytest.raises(EnumerationLimit):
        enumerate_cosets(a3000, range(1, 3001), max_elements=10)
    with pytest.raises(EnumerationLimit):
        enumerate_cosets(F4, {1, 2}, max_elements=2)
    # within the cap at level 1, or stopped at level 0: no early raise
    for K, cap in [({1, 2}, 3), ((), 0)]:
        with pytest.raises(AssertionError, match="steps built"):
            enumerate_cosets(F4, K, max_elements=cap)
    with pytest.raises(AssertionError, match="steps built"):
        enumerate_cosets(a3000, range(1, 3001), max_length=0, max_elements=10)


def test_max_length_truncation():
    full = enumerate_cosets(F4, {1, 2, 3, 4}, max_length=None)
    part = enumerate_cosets(F4, {1, 2, 3, 4}, max_length=3)
    assert not part.complete
    assert part.lmax == 3
    for r in range(4):
        assert [w.word for w in part.levels[r]] == [w.word for w in full.levels[r]]
    point = enumerate_cosets(A2, {1}, max_length=0)
    assert point.levels == [[WeylElement.identity(A2)]] and not point.complete
    with pytest.raises(ValueError, match="max_length -1 is negative"):
        enumerate_cosets(A2, {1}, max_length=-1)


def test_table_lookup_roundtrip():
    table = enumerate_cosets(F4, {1})
    for r, i, w in table:
        assert table.class_of_word(w.word) == (r, i)
        assert table.element(r, i) is w
    assert table.class_of_word((3, 2, 1)) == (3, 1)
    with pytest.raises(KeyError):
        table.element(0, 2)
    with pytest.raises(KeyError):
        # sigma_2 is not a minimal representative for K={1}
        table.class_of_word((2,))


def test_class_of_word_checks_the_word():
    table = enumerate_cosets(F4, {1})
    with pytest.raises(ValueError, match=r"^word \[1, 1\] is not reduced$"):
        table.class_of_word((1, 1))
    # reduced, but it ends in 2, not in the parabolic node 1
    with pytest.raises(KeyError, match=r"word \[1, 2\] is not a minimal representative"):
        table.class_of_word((1, 2))
    with pytest.raises(ValueError, match=r"^word \[5\] has a letter outside 1..4$"):
        table.class_of_word((5,))


def test_invalid_k_rejected():
    with pytest.raises(ValueError):
        enumerate_cosets(A2, {0})
    with pytest.raises(ValueError):
        enumerate_cosets(A2, {3})


# ---------------------------------------------------------------- caching


def test_binary_cache_roundtrip(tmp_path):
    for lt, K in [(A3, {1, 2, 3}), (F4, {1}), (E6, {1, 2, 3, 4, 5, 6})]:
        table = enumerate_cosets(lt, K)
        path = tmp_path / f"{lt}.json"
        table.save_binary(path)
        loaded = CosetTable.load_binary(path, lt, K)
        assert loaded == table
        assert loaded.complete == table.complete
        for r, i, w in table:
            got = loaded.element(r, i)
            assert (got.word, got.inv_root_rows) == (w.word, w.inv_root_rows)
        assert cli_listing(loaded) == cli_listing(table)
        assert not list(tmp_path.glob(".*.tmp"))


# the tables the tier-1 tests build, from a point to E6/T and E7/P2
TREE_TABLES = [
    (A2, set()), (A2, {1}), (A3, {2}), (A3, {1, 2, 3}), (B3, {1}), (B3, {3}),
    (B3, {1, 2, 3}), (C3, {1, 2, 3}), (G2, {1}), (G2, {1, 2}), (D4, {2}),
    (D4, {1, 2, 3, 4}), (F4, {1}), (F4, {4}), (F4, {1, 2, 3, 4}), (E6, {2}),
    (E6, {1, 2, 3, 4, 5, 6}), (LieType.parse("E7"), {2}), (LieType.parse("E7"), {7}),
]


@pytest.mark.parametrize(
    "lt,K", TREE_TABLES, ids=[f"{lt}-{''.join(map(str, sorted(K)))}" for lt, K in TREE_TABLES]
)
def test_recorded_tree_matches_words(lt, K, tmp_path):
    # the (letter, parent) pairs the enumeration records are those found
    # again from the words, and the words each level gets from the tree
    # are the lex-least ones, on full, truncated and reloaded tables
    table = enumerate_cosets(lt, K)
    words = [[w.minimized_word() for w in level] for level in table.levels]
    path = tmp_path / "table.json"
    table.save_binary(path)
    tables = [table, CosetTable.load_binary(path, lt, K)]
    simple = WeylElement.identity(lt).inv_root_rows
    exits = {simple[j - 1] for j in range(1, lt.rank + 1) if j not in K}
    for max_length in (None, 0, 1, 5):
        part = enumerate_cosets(lt, K, max_length=max_length)
        tables.append(part)
        if part.complete:
            # Poincare duality, and one top class w_0^P, which no letter
            # lengthens within W^P (each row is negative or a simple root
            # alpha_j, j not in K)
            assert part.betti == part.betti[::-1]
            (top,) = part.keys[part.lmax]
            assert all(row < 0 or row in exits for row in top)
        else:
            assert part.lmax == max_length
    middle_first = TREE_TABLES.index((lt, K)) % 2 == 0
    for k, t in enumerate(tables):
        if middle_first and k:
            # one middle level read first through `element` is built from
            # the stored keys and tree before `levels` builds the rest
            mid = (t.lmax + 1) // 2
            level = [t.element(mid, i) for i in range(1, t.beta(mid) + 1)]
            assert [w.inv_root_rows for w in level] == t.keys[mid] == table.keys[mid]
            assert [w.word for w in level] == [w.minimized_word() for w in level] == words[mid]
            assert all(a is b for a, b in zip(t.levels[mid], level))
        # half the tables read their top level first, so `level` builds
        # every level below it on the way up
        if k % 2:
            assert len(t.level(t.lmax)) == t.beta(t.lmax)
        assert [[w.word for w in level] for level in t.levels] == words[: t.lmax + 1]
        assert word_tree(t) == t.tree == table.tree[: t.lmax]


def _made_keys(monkeypatch):
    """The key of every WeylElement made from now on, in order."""
    made = []
    init = WeylElement.__init__

    def counted(self, lie_type, inv_root_rows, *args, **kwargs):
        made.append(inv_root_rows)
        init(self, lie_type, inv_root_rows, *args, **kwargs)

    monkeypatch.setattr(WeylElement, "__init__", counted)
    return made


def test_words_are_built_on_demand(tmp_path, monkeypatch, capsys):
    # enumeration, saving, a cache load, comparing tables and the CLI
    # listing read keys and the tree only: no class above level 0 is made
    # an element
    made = _made_keys(monkeypatch)
    table = enumerate_cosets(E6, range(1, 7))
    path = tmp_path / "table.json"
    table.save_binary(path)
    loaded = CosetTable.load_binary(path, E6, range(1, 7))
    assert loaded == table
    assert cli_listing(loaded) == cli_listing(table)
    assert loaded.total == table.total == 51840
    level_of = {key: r for r, level in enumerate(table.keys) for key in level}
    assert {level_of[key] for key in made} <= {0}
    # reading level 5 makes the elements of levels 0..5, each with its
    # word, and none above
    del made[:]
    loaded.level(5)
    assert {level_of[key] for key in made} == set(range(6))
    assert len(loaded._levels) == 6
    for level in loaded._levels:
        assert [u._word for u in level] == [u.minimized_word() for u in level]
    # a cached product of degree 4 makes the elements of levels 0..4 only
    argv = ["multiply", "E6", "3,2,1", "w4", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    del made[:]
    assert main(argv) == 0
    assert capsys.readouterr().out == cold
    assert {level_of[key] for key in made} == set(range(5))


def test_word_of_a_long_chain_needs_no_recursion():
    # W^P of A_n with K = {1} is one chain s_k...s_1, so the top class
    # gets its word after n levels are built, each from the one below
    n = 400
    table = enumerate_cosets(LieType.parse(f"A{n}"), {1})
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    assert table.lmax == n > depth + 100
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        top = table.element(n, 1)
        word = top.word
    finally:
        sys.setrecursionlimit(old)
    assert word == top.minimized_word() == tuple(range(n, 0, -1))


def test_enumeration_memory_pin():
    # E6/T holds 51,840 keys, tuples of 6 packed roots, beside its tree, and
    # traces 10.4 MiB; an element per class would add about 3 MiB, and a
    # word tuple per class about 9 MiB more
    tracemalloc.start()
    try:
        table = enumerate_cosets(E6, range(1, 7))
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.total == 51840
    assert current < 12 << 20


def test_index_is_built_on_first_lookup():
    # the index is per level: a lookup builds only the level of its length
    table = enumerate_cosets(F4, {1, 2, 3, 4})
    assert table._index == {}
    assert cli_listing(table)
    assert table._index == {}
    w = table.element(7, 3)
    assert table.class_of_word(w.word) == (7, 3)
    assert list(table._index) == [7]
    assert len(table._index[7]) == table.beta(7)


class _OpenOnUnpickle:
    def __init__(self, target):
        self.target = target

    def __reduce__(self):
        return (open, (self.target, "w"))


def test_binary_cache_rejects_pickle(tmp_path):
    import pickle

    marker = tmp_path / "unpickled"
    path = tmp_path / "old.table"
    # unpickling this payload would create `marker`
    path.write_bytes(pickle.dumps(_OpenOnUnpickle(str(marker))))
    with pytest.raises(ValueError, match="corrupt coset-table cache"):
        CosetTable.load_binary(path, A2, {1})
    assert not marker.exists()


def test_json_export_stable(tmp_path):
    table = enumerate_cosets(A3, {2})
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    table.save_binary(p1)
    # levels [2]; [1,2], [3,2]; [1,3,2]; [2,1,3,2] as (letter, parent) pairs
    assert json.loads(p1.read_text()) == {
        "lie_type": "A3", "K": [2], "complete": True, "max_length": None,
        "tree": [[2, 1], [1, 1, 3, 1], [1, 2], [2, 1]],
    }
    loaded = CosetTable.load_binary(p1, A3, {2})
    assert json.loads(cli_listing(loaded)) == listing_obj(table)
    # re-exporting the loaded table is byte-identical
    loaded.save_binary(p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "complete, max_length, consistent",
    [(True, None, True), (True, 3, True), (False, 2, True), (True, 2, False),
     (True, -4, False), (False, None, False), (False, 0, False), (False, 3, False)],
)
def test_load_checks_truncation_marks(tmp_path, monkeypatch, complete, max_length, consistent):
    # A2/P1 has levels 0..2; `consistent` marks the headers enumerate_cosets
    # gives them (it marks a table truncated exactly when it stopped at level
    # max_length).  Only full enumerations are cached, so every header but
    # complete: true, max_length: null is rejected before anything is
    # enumerated, consistent or not.
    obj = {
        "lie_type": "A2", "K": [1], "complete": complete, "max_length": max_length,
        "tree": [[1, 1], [2, 1]],
    }
    if consistent:
        table = enumerate_cosets(A2, {1}, max_length=max_length)
        assert (table.complete, table.max_length, table.tree) == (complete, max_length, obj["tree"])
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(obj))
    if (complete, max_length) == (True, None):
        assert CosetTable.load_binary(path, A2, {1}) == enumerate_cosets(A2, {1})
    else:
        def no_grading(*args):
            raise AssertionError("enumerated for a truncated header")

        monkeypatch.setattr("schubert.weyl._grade", no_grading)
        with pytest.raises(ValueError, match="header is not complete: true, max_length: null"):
            CosetTable.load_binary(path, A2, {1})


# The tables of the round-trip property, each with the bytes of its file
ROUND_TRIP_TABLES = [(A3, {1, 2, 3}), (B3, {1, 2, 3}), (G2, {1, 2}), (C3, {1, 2, 3}), (F4, {1})]


@lru_cache(maxsize=None)
def _saved(k):
    lt, K = ROUND_TRIP_TABLES[k]
    table = enumerate_cosets(lt, K)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        table.save_binary(path)
        return table, path.read_bytes()


def _int_slots(obj):
    """(container, index) of every int of a cache file's object."""
    slots = [(obj["K"], j) for j in range(len(obj["K"]))]
    slots += [(level, k) for level in obj["tree"] for k in range(len(level))]
    return slots


def _load_bytes(raw, k):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_bytes(raw)
        return CosetTable.load_binary(path, *ROUND_TRIP_TABLES[k])


@given(k=st.integers(0, len(ROUND_TRIP_TABLES) - 1), data=st.data())
@settings(max_examples=150, deadline=None)
def test_cache_round_trip_and_single_int_changes(k, data):
    table, raw = _saved(k)
    loaded = _load_bytes(raw, k)
    assert [[(w.word, w.inv_root_rows) for w in level] for level in loaded.levels] == [
        [(w.word, w.inv_root_rows) for w in level] for level in table.levels
    ]
    obj = json.loads(raw)
    container, at = data.draw(st.sampled_from(_int_slots(obj)))
    container[at] = data.draw(st.integers(-2, 2 * len(max(table.levels, key=len)) + 2))
    try:
        changed = _load_bytes(json.dumps(obj).encode(), k)
    except ValueError:
        return
    # a change that loads names the same table
    assert changed == table
    assert [[w.inv_root_rows for w in level] for level in changed.levels] == [
        [w.inv_root_rows for w in level] for level in table.levels
    ]


def test_from_word_rejects_letters_outside_rank():
    for word in [(0,), (7,), (1, 0, 2)]:
        with pytest.raises(ValueError, match="outside 1..6"):
            WeylElement.from_word(E6, word)


def test_word_agrees_with_brute_matrix():
    for word in [(1,), (2, 1), (3, 2, 1), (1, 2, 3, 2)]:
        assert weight_matrix(wd(B3, *word)) == brute_matrix(B3, word)
    assert brute_length(B3, (1, 2, 1, 2)) == len(wd(B3, 1, 2, 1, 2).word)
