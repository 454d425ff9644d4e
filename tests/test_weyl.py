"""Tests for Weyl elements, words, and coset enumeration."""

import json
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from schubert.cartan import LieType
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
        assert w.length() == dist


@pytest.mark.parametrize("lt", [A3, B3, G2, F4])
def test_inverse_key_is_faithful(lt):
    # the brute group is generated on weights; distinct elements there must
    # have distinct inverse root matrices, or inv_root_rows could not be the key
    group = brute_group(lt)
    keys = {WeylElement.from_word(lt, word).inv_root_rows for _, word in group.values()}
    assert len(keys) == len(group)


def test_identity_basics():
    e = WeylElement.identity(A2)
    assert e.length() == 0
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
    assert w.length() <= len(word)
    assert (w.length() - len(word)) % 2 == 0
    mw = w.minimized_word()
    assert len(mw) == w.length()
    assert WeylElement.from_word(lt, mw) == w
    assert weight_matrix(w) == brute_matrix(lt, word)
    # the stored matrix is that of w^-1: the brute model of the reversed word
    assert inverse_weight_matrix(w) == brute_matrix(lt, word[::-1])
    winv = WeylElement(lt, _root_matrix(lt, w.word))
    assert winv == WeylElement.from_word(lt, word[::-1])
    assert winv.length() == w.length()
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
    assert uv.length() <= u.length() + v.length()


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
        assert w.length() == r
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
                w = _left_step(lt, i, K)(u)
                assert (w is not None) == child, (u.word, i)
                if child:
                    # the matrix the step stores is that of w^-1
                    assert w.word == word
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
            assert key(step(u)) == expected, (u.word, i)
            children += expected is not None
    assert children == table.total - 1


def test_minimal_rep_examples():
    e = WeylElement.identity(F4)
    # sigma_1 is minimal for K={1}; sigma_2 lies in W_P
    assert _left_step(F4, 1, {1})(e) == WeylElement.from_word(F4, (1,))
    assert _left_step(F4, 2, {1})(e) is None
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


def test_max_length_truncation():
    full = enumerate_cosets(F4, {1, 2, 3, 4}, max_length=None)
    part = enumerate_cosets(F4, {1, 2, 3, 4}, max_length=3)
    assert not part.complete
    assert part.lmax == 3
    for r in range(4):
        assert [w.word for w in part.levels[r]] == [w.word for w in full.levels[r]]


def test_table_lookup_roundtrip():
    table = enumerate_cosets(F4, {1})
    for r, i, w in table:
        assert table.index_of(w) == (r, i)
        assert table.element(r, i) is w
    assert table.class_of_word((3, 2, 1)) == (3, 1)
    with pytest.raises(KeyError):
        table.element(0, 2)
    with pytest.raises(KeyError):
        # sigma_2 is not a minimal representative for K={1}
        table.index_of(WeylElement.from_word(F4, (2,)))


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
        loaded = CosetTable.load_binary(path)
        assert loaded == table
        assert loaded.complete == table.complete
        for r, i, w in table:
            got = loaded.element(r, i)
            assert (got.word, got.inv_root_rows) == (w.word, w.inv_root_rows)
        assert cli_listing(loaded) == cli_listing(table)
        assert not list(tmp_path.glob(".*.tmp"))


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
        CosetTable.load_binary(path)
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
    loaded = CosetTable.load_binary(p1)
    assert json.loads(cli_listing(loaded)) == listing_obj(table)
    # re-exporting the loaded table is byte-identical
    loaded.save_binary(p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "complete, max_length, ok",
    [(True, None, True), (True, 3, True), (False, 2, True), (True, 2, False),
     (True, -4, False), (False, None, False), (False, 0, False), (False, 3, False)],
)
def test_load_checks_truncation_marks(tmp_path, complete, max_length, ok):
    # A2/P1 has levels 0..2; enumerate_cosets marks a table truncated exactly
    # when it stopped at level max_length
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({
        "lie_type": "A2", "K": [1], "complete": complete, "max_length": max_length,
        "tree": [[1, 1], [2, 1]],
    }))
    if ok:
        table = CosetTable.load_binary(path)
        assert (table.complete, table.max_length, table.lmax) == (complete, max_length, 2)
    else:
        with pytest.raises(ValueError, match="disagree with the 3 levels"):
            CosetTable.load_binary(path)


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


def _load_bytes(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_bytes(raw)
        return CosetTable.load_binary(path)


@given(k=st.integers(0, len(ROUND_TRIP_TABLES) - 1), data=st.data())
@settings(max_examples=150, deadline=None)
def test_cache_round_trip_and_single_int_changes(k, data):
    table, raw = _saved(k)
    loaded = _load_bytes(raw)
    assert [[(w.word, w.inv_root_rows) for w in level] for level in loaded.levels] == [
        [(w.word, w.inv_root_rows) for w in level] for level in table.levels
    ]
    obj = json.loads(raw)
    container, at = data.draw(st.sampled_from(_int_slots(obj)))
    container[at] = data.draw(st.integers(-2, 2 * len(max(table.levels, key=len)) + 2))
    try:
        changed = _load_bytes(json.dumps(obj).encode())
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
    assert brute_length(B3, (1, 2, 1, 2)) == wd(B3, 1, 2, 1, 2).length()
