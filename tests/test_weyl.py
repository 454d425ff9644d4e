"""Tests for Weyl elements, words, and coset enumeration."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from schubert.cartan import LieType, num_positive_roots
from schubert.weyl import (
    CosetTable,
    EnumerationLimit,
    WeylElement,
    enumerate_cosets,
)

from brute_weyl import (
    brute_all_reduced_words,
    brute_group,
    brute_length,
    brute_matrix,
    brute_minimal_reps,
)

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
        assert w.weight_rows == mat
        assert w.length() == dist


def test_identity_basics():
    e = WeylElement.identity(A2)
    assert e.length() == 0
    assert e.is_identity()
    assert e.reduced_word() == ()
    assert e.minimized_word() == ()
    s1 = WeylElement.simple_reflection(A2, 1)
    assert e * s1 == s1
    assert s1 * s1 == e
    assert s1.inverse() == s1


def test_longest_element_length():
    for lt in (A3, B3, F4):
        full = enumerate_cosets(lt, set(range(1, lt.rank + 1)))
        assert full.lmax == num_positive_roots(lt)
        assert full.beta(full.lmax) == 1


@pytest.mark.parametrize("lt", [A3, B2, G2])
def test_minimized_word_is_lex_least(lt):
    for mat in brute_group(lt):
        words = brute_all_reduced_words(lt, mat)
        w = WeylElement.from_word(lt, words[0])
        assert w.minimized_word() == min(words)
        assert sorted(w.all_reduced_words()) == sorted(words)
        rw = w.reduced_word()
        assert rw in words


def test_minimized_word_examples():
    # longest element of A2
    assert wd(A2, 2, 1, 2).minimized_word() == (1, 2, 1)
    assert wd(A2, 1, 2, 1).minimized_word() == (1, 2, 1)
    # the F4 class used throughout: sigma_3 sigma_2 sigma_1
    assert wd(F4, 3, 2, 1).minimized_word() == (3, 2, 1)


def test_apply_actions_match_matrices():
    w = wd(F4, 3, 2, 1)
    for k in range(4):
        unit = tuple(int(j == k) for j in range(4))
        assert w.apply_to_weight(unit) == w.weight_rows[k]
        assert w.apply_to_root(unit) == w.root_rows[k]
    winv = w.inverse()
    assert winv.root_rows == w.inv_root_rows


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
    assert WeylElement.from_word(lt, w.reduced_word()) == w
    assert w.inverse().length() == w.length()
    # left/right multiplication helpers agree with general multiply
    i = data.draw(st.integers(1, n))
    si = WeylElement.simple_reflection(lt, i)
    assert w.right_mul_simple(i) == w * si
    assert w.left_mul_simple(i) == si * w


@given(lt=st.sampled_from([A3, B3]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_triangle_inequality(lt, data):
    n = lt.rank
    u = WeylElement.from_word(lt, data.draw(st.lists(st.integers(1, n), max_size=6)))
    v = WeylElement.from_word(lt, data.draw(st.lists(st.integers(1, n), max_size=6)))
    assert (u * v).length() <= u.length() + v.length()


def test_descents():
    w = wd(A2, 1, 2)  # sigma_1 sigma_2
    assert w.has_right_descent(2) and not w.has_right_descent(1)
    assert w.has_left_descent(1) and not w.has_left_descent(2)


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
    assert table.element(0, 1).is_identity()


def test_enumerate_f4_p1():
    table = enumerate_cosets(F4, {1})
    assert table.total == 24
    assert table.lmax == 15
    assert table.betti == (1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1)
    # every stored word is the minimized word and has the right length
    for r, i, w in table:
        assert w.word == w.minimized_word()
        assert w.length() == r
        assert w.is_minimal_rep({1})
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
    [(A3, {2}), (B3, {1}), (B3, {3}), (C3, {1}), (G2, {1}), (G2, {2}), (D4, {2})],
)
def test_enumerate_matches_brute_minimal_reps(lt, K):
    table = enumerate_cosets(lt, K)
    brute = brute_minimal_reps(lt, K)
    assert {r: table.beta(r) for r in range(table.lmax + 1)} == brute


def test_minimal_rep_examples():
    s1 = WeylElement.simple_reflection(F4, 1)
    s2 = WeylElement.simple_reflection(F4, 2)
    assert s1.is_minimal_rep({1})
    assert not s2.is_minimal_rep({1})
    assert WeylElement.identity(F4).is_minimal_rep(set())


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
        table.index_of(WeylElement.simple_reflection(F4, 2))


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
        assert json.loads(path.read_text()) == table.json_obj()
        loaded = CosetTable.load_binary(path)
        assert loaded == table
        assert loaded.complete == table.complete
        for r, i, w in table:
            assert loaded.element(r, i).weight_rows == w.weight_rows
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
    obj = json.loads(p1.read_text())
    assert obj["lie_type"] == "A3"
    assert obj["K"] == [2]
    assert obj["beta"] == list(table.betti)
    assert obj["elements"][0] == {"r": 0, "i": 1, "word": []}
    assert obj["elements"][1]["word"] == [2]
    # re-exporting the loaded table is byte-identical
    CosetTable.load_binary(p1).save_binary(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_from_word_rejects_letters_outside_rank():
    for word in [(0,), (7,), (1, 0, 2)]:
        with pytest.raises(ValueError, match="outside 1..6"):
            WeylElement.from_word(E6, word)


def test_word_agrees_with_brute_matrix():
    for word in [(1,), (2, 1), (3, 2, 1), (1, 2, 3, 2)]:
        assert wd(B3, *word).weight_rows == brute_matrix(B3, word)
    assert brute_length(B3, (1, 2, 1, 2)) == wd(B3, 1, 2, 1, 2).length()
