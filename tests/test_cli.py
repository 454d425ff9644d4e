"""CLI contract tests: argument parsing, exit codes, formats, caching.

Commands run in-process through main(argv) with captured stdout; one
subprocess test covers the installed console entry point.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, seed, settings, strategies as st

import schubert.cli as cli
from schubert.cartan import LieType
from schubert.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    JobSpec,
    _run_enumerate,
    _write_json,
    main,
    run,
    spec_from_args,
)
from schubert.weyl import enumerate_cosets

from listing import cli_listing, listing_obj


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


# -- the three contract examples ----------------------------------------------


def test_enumerate_f4_p1(capsys):
    obj = run_json(capsys, "enumerate", "F4", "--K", "1")
    assert obj["count"] == 24
    assert obj["lie_type"] == "F4"
    assert obj["K"] == [1]
    assert {"r": 3, "i": 1, "word": [3, 2, 1]} in obj["elements"]


def test_multiply_omega_cubed(capsys):
    obj = run_json(capsys, "multiply", "F4", "--K", "1", "w1", "w1", "w1")
    assert obj["terms"] == [{"r": 3, "i": 1, "word": [3, 2, 1], "coeff": 2}]


def test_presentation_su3_full_flag(capsys):
    obj = run_json(capsys, "presentation", "A2", "--K", "1,2")
    assert len(obj["generators"]) == 2
    assert sorted(obj["relation_degrees"]) == [2, 3]


# -- class addressing ----------------------------------------------------------


def test_class_addressing_equivalences(capsys):
    by_word = run_json(capsys, "multiply", "F4", "--K", "1", "2,1", "1")
    by_pair = run_json(capsys, "multiply", "F4", "--K", "1", "2.1", "w1")
    assert by_word["terms"] == by_pair["terms"]


# -- exit codes -----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["multiply", "F4", "--K", "1", "zz"],  # unparseable class token
        ["multiply", "F4", "--K", "1"],  # no classes
        ["nonsense", "F4"],  # unknown command
        ["enumerate", "Q9"],  # unknown Lie type
        ["giambelli", "F4", "--K", "1"],  # missing --degree
        ["gysin", "F4", "--K", "1,2", "--degree", "6"],  # K not a single node
        ["enumerate", "F4", "--K", "1", "--threads", "2"],  # no such option
    ],
)
def test_parse_errors_exit_1(capsys, argv):
    code, _, _ = run_cli(capsys, *argv)
    assert code == EXIT_PARSE


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "F4", "--K", "9"],  # node outside 1..4
        ["multiply", "F4", "--K", "1", "5,2,1"],  # letter outside 1..4
        ["multiply", "F4", "--K", "1", "1,2"],  # not a minimal representative
        ["multiply", "F4", "--K", "1", "9.9"],  # no such class
        ["multiply", "A2", "--K", "1", "w2"],  # class of the wrong parabolic
    ],
)
def test_domain_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_DOMAIN
    assert "domain error" in err


@pytest.mark.parametrize("token", ["9.9", "0.2"])  # no level 9; level 0 holds one class
def test_pair_of_no_class_names_the_token(capsys, token):
    r, i = (int(g) for g in token.split("."))
    code, out, err = run_cli(capsys, "multiply", "F4", "--K", "1", token)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == f"domain error: '{token}': no class ({r}, {i}) in table\n"


@pytest.mark.parametrize("token", ["1,2,2", "1,1"])  # s1 and the identity
def test_non_reduced_word_is_domain_error(capsys, token):
    code, out, err = run_cli(capsys, "multiply", "F4", "--K", "1", token, "w1")
    assert (code, out) == (EXIT_DOMAIN, "")
    word = [int(p) for p in token.split(",")]
    assert err == f"domain error: '{token}': word {word} is not reduced\n"


def test_reduced_word_need_not_be_lex_least(capsys):
    # 2,1,2 and 1,2,1 are reduced words of the same element of A3
    assert run_json(capsys, "multiply", "A3", "2,1,2", "w1") == run_json(
        capsys, "multiply", "A3", "1,2,1", "w1"
    )


def test_resource_cap_exits_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, "enumerate", "E6", "--max-elements", "10")
    assert code == EXIT_RESOURCE
    assert "resource limit" in err
    # a table read from a warm cache is held to the same cap
    cold = run_cli(capsys, "enumerate", "F4", "--max-elements", "10")
    assert cold[0] == EXIT_RESOURCE
    run_cli(capsys, "enumerate", "F4", "--cache-dir", str(tmp_path))
    warm = run_cli(
        capsys, "enumerate", "F4", "--cache-dir", str(tmp_path), "--max-elements", "10"
    )
    assert warm == cold


def test_cap_message_on_a_long_k_is_one_short_line(capsys, monkeypatch):
    # a short K is listed in full
    code, _, err = run_cli(capsys, "enumerate", "E6", "--K", "1,2", "--max-elements", "10")
    assert code == EXIT_RESOURCE
    assert "K=[1, 2]" in err

    # A3000/T is over the cap at level 1, so no step is built; the message
    # gives the size of K, not its 3000 nodes
    def no_steps(*args):
        raise AssertionError("steps built for an enumeration over the cap at level 1")

    monkeypatch.setattr("schubert.weyl._left_step", no_steps)
    code, out, err = run_cli(capsys, "enumerate", "A3000", "--max-elements", "10")
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert "A3000" in err and "3000 nodes in K" in err and "exceeds 10 " in err


def test_memory_error_exits_3(capsys, monkeypatch):
    # raised here without allocating; a real one comes from a table or a
    # product too large for the machine, e.g. the Cartan matrix of A20000
    def exhausted(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "load_table", exhausted)
    for command in (["enumerate", "E6"], ["gysin", "E7", "--K", "2", "--degree", "20"]):
        assert run_cli(capsys, *command) == (EXIT_RESOURCE, "", "resource limit: out of memory\n")
        out = io.StringIO()
        assert run(spec_from_args(command), out) == EXIT_RESOURCE
        assert out.getvalue() == ""
        assert capsys.readouterr().err == "resource limit: out of memory\n"


# -- caching --------------------------------------------------------------------


def test_cache_round_trip_byte_identical(capsys, tmp_path):
    code1, out1, _ = run_cli(
        capsys, "enumerate", "F4", "--K", "1", "--cache-dir", str(tmp_path)
    )
    assert code1 == EXIT_OK
    assert (tmp_path / "F4-K1.json").exists()
    code2, out2, _ = run_cli(
        capsys, "enumerate", "F4", "--K", "1", "--cache-dir", str(tmp_path)
    )
    assert code2 == EXIT_OK
    assert out1 == out2  # byte-identical JSON after the cache round-trip
    assert out1 == run_cli(capsys, "enumerate", "F4", "--K", "1")[1]  # and uncached


def not_the_table(path, table):
    """The stderr line of a cache file at `path` that is not `table` ("E6 K=[1, 2]")."""
    return f"domain error: {path}: corrupt coset-table cache (not the table of {table})\n"


def test_cache_content_mismatch_is_domain_error(capsys, tmp_path):
    run_cli(capsys, "enumerate", "A2", "--K", "1", "--cache-dir", str(tmp_path))
    (tmp_path / "A2-K2.json").write_bytes((tmp_path / "A2-K1.json").read_bytes())
    # an E8/T header in the E6/T slot, and K=[true] in the A2/P1 slot: JSON
    # true compares equal to 1, but it is not what a cold run writes
    (tmp_path / "E6-K1_2_3_4_5_6.json").write_text(
        '{"K":[1,2,3,4,5,6,7,8],"complete":true,"lie_type":"E8","max_length":null,"tree":[]}'
    )
    raw = (tmp_path / "A2-K1.json").read_text()
    (tmp_path / "A2-K1.json").write_text(raw.replace('"K":[1]', '"K":[true]'))

    cases = [("A2-K2.json", ["A2", "--K", "2"], "A2 K=[2]"),
             ("E6-K1_2_3_4_5_6.json", ["E6"], "E6 K=[1, 2, 3, 4, 5, 6]"),
             ("A2-K1.json", ["A2", "--K", "1"], "A2 K=[1]")]
    for name, argv, table in cases:
        code, out, err = run_cli(capsys, "enumerate", *argv, "--cache-dir", str(tmp_path))
        assert (code, out, err) == (EXIT_DOMAIN, "", not_the_table(tmp_path / name, table))
    # the file is checked against the enumeration a cold run of the same
    # arguments makes, so a table over --max-elements is a resource limit
    # whatever its file holds
    argv = ["enumerate", "E6", "--max-elements", "10"]
    cold = run_cli(capsys, *argv)
    assert cold[0] == EXIT_RESOURCE
    assert run_cli(capsys, *argv, "--cache-dir", str(tmp_path)) == cold


def _b3t_without_two_leaves():
    """The B3/T cache file without the classes [1,2] and [1,2,1,3,2,1,3].

    Neither is the parent of another class, so the rest is still a tree
    with palindromic level sizes; the parents are renumbered.
    """
    table = enumerate_cosets(LieType.parse("B3"), {1, 2, 3})
    gone = {(1, 2), (1, 2, 1, 3, 2, 1, 3)}
    renumber = [{1: 1}]
    tree = []
    for r, flat in enumerate(table.tree, start=1):
        kept, flat_kept = {}, []
        for i, (a, p) in enumerate(zip(flat[::2], flat[1::2]), start=1):
            if table.element(r, i).word not in gone:
                kept[i] = len(kept) + 1
                flat_kept += [a, renumber[-1][p]]
        renumber.append(kept)
        tree.append(flat_kept)
    assert sum(map(len, tree)) == 2 * (table.total - 3)
    obj = {"K": [1, 2, 3], "complete": True, "lie_type": "B3", "max_length": None, "tree": tree}
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def test_cache_missing_classes_is_domain_error(capsys, tmp_path):
    # every class the file lists is a true class in its place of the tree,
    # but two are left out, so the file is not the table
    (tmp_path / "B3-K1_2_3.json").write_text(_b3t_without_two_leaves())
    argv = ["multiply", "B3", "w1", "w2", "--format", "text"]
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert (code, out, err) == (
        EXIT_DOMAIN, "", not_the_table(tmp_path / "B3-K1_2_3.json", "B3 K=[1, 2, 3]")
    )
    assert run_cli(capsys, *argv) == (EXIT_OK, "1*s[2,1] + 1*s[2,3]\n", "")


def _edit(change):
    def apply(raw):
        obj = json.loads(raw)
        change(obj)
        return json.dumps(obj).encode()

    return apply


def _set(r, k, value):
    """Set entry k of the flat pair list of level r."""
    return _edit(lambda obj: obj["tree"][r - 1].__setitem__(k, value))


def _set_level(r, flat):
    return _edit(lambda obj: obj["tree"].__setitem__(r - 1, flat))


def _drop_top_level(obj):
    obj["tree"].pop()


def _mark_truncated(obj):
    # a consistent truncated table, as enumerate_cosets(..., max_length=1) gives
    _drop_top_level(obj)
    obj.update(complete=False, max_length=1)


def _truncated_without_max_length(obj):
    # enumerate_cosets never writes this: truncation stops at max_length
    _drop_top_level(obj)
    obj["complete"] = False


# The file of the listing format, which held one {r, i, word} object per
# class; it has no tree, so it is read as corrupt.
LISTING_FORMAT = (
    b'{"K":[1],"beta":[1,1,1],"complete":true,"elements":[{"i":1,"r":0,"word":[]},'
    b'{"i":1,"r":1,"word":[1]},{"i":1,"r":2,"word":[2,1]}],"lie_type":"A2",'
    b'"max_length":null}'
)

# (K, change to the cache file) for A2.  Level r >= 1 is a flat list of
# (letter, parent) pairs: K={1} is [[1,1], [2,1]] for the words [1]; [2,1],
# and the full flag K={1,2} is [[1,1,2,1], [1,2,2,1], [1,2]] for [1], [2];
# [1,2], [2,1]; [1,2,1].  The load accepts only the bytes a cold run writes,
# so every case gets the one message of `not_the_table`.  `_edit` writes
# with json.dumps' default separators, which alone change the bytes (the
# default-separators case); in its other cases the value change is the case.
CORRUPT_CACHES = {
    "truncated": ("1", lambda raw: raw[: len(raw) // 2]),
    "garbage": ("1", lambda raw: b"\x80\x04\x95\xff not a cache \xfe"),
    "json-list": ("1", lambda raw: b'["A2", [1], true]'),
    "json-missing-keys": ("1", lambda raw: b'{"lie_type": "A2", "K": [1]}'),
    "listing-format": ("1", lambda raw: LISTING_FORMAT),
    "complete-not-bool": ("1", _edit(lambda obj: obj.update(complete=1))),
    "letter-0": ("1", _set(1, 0, 0)),
    "letter-rank+1": ("1", _set(1, 0, 3)),
    # true and 1.0 compare equal to 1
    "letter-true": ("1", _set(1, 0, True)),
    "parent-0": ("1", _set(2, 1, 0)),
    "tail-not-a-class": ("1", _set(2, 1, 2)),  # one parent
    "parent-float": ("1", _set(2, 1, 1.0)),
    "odd-length": ("1", _set_level(2, [2, 1, 2])),
    "empty-level": ("1", _edit(lambda obj: obj["tree"].insert(1, []))),
    "not-reduced": ("1", _set(2, 0, 1)),  # [1,1]
    "not-minimal": ("1", _set(1, 0, 2)),  # [2] is not minimal for K={1}
    # [2,1,2] is the element [1,2,1], whose lex-least word starts with 1
    "not-minimized": ("1,2", _set_level(3, [2, 1])),
    "out-of-position": ("1,2", _set_level(1, [2, 1, 1, 1])),
    "duplicate-class": ("1,2", _set_level(1, [1, 1, 1, 1])),
    # without the leaf [1,2], the level sizes 1, 2, 1, 1 end in the top class
    "not-palindromic": (
        "1,2", _edit(lambda obj: obj.update(tree=[[1, 1, 2, 1], [2, 1], [1, 1]])),
    ),
    "top-level-dropped": ("1", _edit(_drop_top_level)),
    "marked-truncated": ("1", _edit(_mark_truncated)),
    "truncation-marks-disagree": ("1", _edit(_truncated_without_max_length)),
    # full flag: keep [], [1], [2], [1,2]; the top class [1,2] has no tree
    # child, but sigma_2 lengthens it to [1,2,1]
    "top-not-longest": ("1,2", _edit(lambda obj: obj.update(tree=[[1, 1, 2, 1], [1, 2]]))),
    # the JSON value a cold run writes, in other bytes
    "default-separators": ("1,2", _edit(lambda obj: None)),
    "trailing-newline": ("1,2", lambda raw: raw + b"\n"),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_CACHES))
def test_corrupt_cache_is_domain_error(capsys, tmp_path, case):
    K, corrupt = CORRUPT_CACHES[case]
    argv = ["enumerate", "A2", "--K", K, "--cache-dir", str(tmp_path)]
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    (path,) = tmp_path.glob("A2-K*.json")
    path.write_bytes(corrupt(path.read_bytes()))
    table = f"A2 K=[{K.replace(',', ', ')}]"
    assert run_cli(capsys, *argv) == (EXIT_DOMAIN, "", not_the_table(path, table))


def test_corrupt_cache_check_survives_optimize(subprocess_env, tmp_path):
    # the pair (1, 1) of level 2 is the word [1,1], which is not reduced
    path = tmp_path / "A2-K1.json"
    path.write_text(
        '{"K":[1],"complete":true,"lie_type":"A2","max_length":null,"tree":[[1,1],[1,1]]}'
    )
    code = (
        "import sys\n"
        "assert False\n"  # stripped under -O, so this line proves -O is on
        "from schubert.cli import main\n"
        f"sys.exit(main(['enumerate', 'A2', '--K', '1', '--cache-dir', {str(tmp_path)!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=subprocess_env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_DOMAIN, "", not_the_table(path, "A2 K=[1]")
    )


def _cache_dir_is_a_file(tmp_path):
    path = tmp_path / "F"
    path.write_text("")
    return path, path


def _cache_file_is_a_directory(tmp_path):
    path = tmp_path / "A2-K1_2.json"
    path.mkdir()
    return tmp_path, path


@pytest.mark.parametrize(
    "make", [_cache_dir_is_a_file, _cache_file_is_a_directory],
    ids=["cache-dir-is-a-file", "cache-file-is-a-dir"],
)
def test_unusable_cache_path_is_domain_error(capsys, tmp_path, make):
    cache_dir, named = make(tmp_path)
    code, out, err = run_cli(capsys, "enumerate", "A2", "--cache-dir", str(cache_dir))
    assert code == EXIT_DOMAIN
    assert err.startswith("domain error: ") and err.count("\n") == 1
    assert str(named) in err
    assert "Traceback" not in err
    assert out == ""


def test_multiply_uses_cache(capsys, tmp_path):
    run_cli(capsys, "enumerate", "F4", "--K", "1", "--cache-dir", str(tmp_path))
    obj = run_json(
        capsys, "multiply", "F4", "--K", "1", "w1", "w1", "w1",
        "--cache-dir", str(tmp_path),
    )
    assert obj["terms"][0]["coeff"] == 2


# -- output formats --------------------------------------------------------------


def test_table_and_text_formats(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "A2", "--K", "1", "--format", "table")
    assert code == EXIT_OK
    assert out.splitlines()[0].split() == ["r", "i", "word"]
    code, out, _ = run_cli(
        capsys, "multiply", "F4", "--K", "1", "w1", "w1", "w1", "--format", "text"
    )
    assert out.strip() == "2*s[3,1]"
    code, out, _ = run_cli(
        capsys, "presentation", "F4", "--K", "1", "--format", "text"
    )
    assert "Z[w1, y3, y4, y6]" in out


# Text output of products of three and four factors, byte for byte; the
# strings come from the k-factor level sweep, a route independent of the fold.
PINNED_PRODUCTS = [
    (["E6", "--K", "2", "6.1", "6.1", "6.1"], "3*s[18,1] + 3*s[18,2]"),
    (
        ["F4", "2.1", "2.2", "2.3", "2.1"],
        "2*s[8,2] + 2*s[8,3] + 6*s[8,6] + 2*s[8,8] + 6*s[8,11] + 10*s[8,13]"
        " + 6*s[8,19] + 12*s[8,24] + 8*s[8,30] + 8*s[8,33] + 4*s[8,35]"
        " + 4*s[8,37] + 8*s[8,39] + 4*s[8,41] + 4*s[8,43] + 4*s[8,44]"
        " + 4*s[8,45] + 4*s[8,46] + 4*s[8,47] + 12*s[8,48] + 4*s[8,49]"
        " + 20*s[8,54] + 4*s[8,56] + 12*s[8,57] + 12*s[8,60] + 8*s[8,62]"
        " + 12*s[8,66] + 8*s[8,68] + 8*s[8,69] + 8*s[8,70] + 8*s[8,71]",
    ),
    (["F4", "--K", "1", "w1", "w1", "w1"], "2*s[3,1]"),
]


@pytest.mark.parametrize(
    "argv, text", PINNED_PRODUCTS, ids=["e6p2-cube", "f4t-four", "f4p1-cube"]
)
def test_multiply_text_output_pinned(capsys, argv, text):
    assert run_cli(capsys, "multiply", *argv, "--format", "text") == (
        EXIT_OK, text + "\n", ""
    )


# sha256 of stdout, JSON and text, captured before JSON got its own writer
# and the enumeration step its row test (E6/T: before roots were packed into
# ints); any change to an output byte fails.
E6T_JSON_DIGEST = "1cdfe3103698cf548cff9667c689b34784ffab77f2f43cd3ba362ba0bc62635c"
PINNED_DIGESTS = [
    (["enumerate", "E6"], E6T_JSON_DIGEST,
     "ee9397ac4e6bdf1f4d901b6fb7b2c09be4828699dc07eaee03f4c3a03c28170a"),
    (["enumerate", "F4"],
     "f32cd24b6bdde9b5ce522871f9c10ffb98f99dca83ae4e94bd6f93daadbdc580",
     "2498100c3cf0299c9edf6405e363f8c0a4730ecd0d2b72988fa81caf4c2b15a6"),
    (["enumerate", "E6", "--K", "2"],
     "7918fb7955c0b68be78b2c15c1a5b44497f204725cf0f2b1b2670babf43d6dd6",
     "51f5c2a15486b328ed9163b292596be756b258f0fc521b8ddaf107023bbdde73"),
    (["presentation", "F4", "--K", "1"],
     "39b518aba5ca46345478111da8594162a5583d8a5add0d11d1d60c6579bf7ea9",
     "4ea10d1244e54f71cb8f704071902904fe78994ba547a6ba85b2b3e8ad74939f"),
    (["giambelli", "F4", "--K", "1", "--degree", "4"],
     "fc9da8cde60212772dab8326e10fe23ffb8d9a68362022e0e19ee3ffd9699606",
     "150564298ba91f74c450035b251ffedc85274d96a845aa3071a1c85a46a536e7"),
    (["gysin", "E6", "--K", "2", "--degree", "12"],
     "0e4be0ae3f555590419cfbc36cb1164e1efa29cd4753e0ac619d272943a909a6",
     "1019397afe809b05ae312289a30e1a10ba733943d28b2fb52cfde2b50268d7ce"),
    (["multiply", "E6", "--K", "2", "3.1", "4.2", "2.1"],
     "dcd1f9eca78f3f871cd1fe555877023a00a8b6ae07398489eddedc8655a8f572",
     "4bf0c2ea844ac46e0932b62037a967ea3a39c8a4076e8bd7e337c83abb654eda"),
]


@pytest.mark.parametrize(
    "argv, json_digest, text_digest", PINNED_DIGESTS,
    ids=[" ".join(argv) for argv, _, _ in PINNED_DIGESTS],
)
def test_stdout_digests_pinned(capsys, argv, json_digest, text_digest):
    for fmt, digest in (("json", json_digest), ("text", text_digest)):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# sha256 of the table format of `enumerate`, captured while the listing was
# still built as one dict per class (E6/T: while each word was still joined
# letter by letter)
PINNED_TABLE_DIGESTS = [
    (["enumerate", "E6"], "1ee2c67c760f6b55af1843de94e22d4714e7327de7eddb1d663fdc14abca56d8"),
    (["enumerate", "F4"], "462c1b6b6f727e7f25b1402d1e1b85baa85ed94b9dbd911dc0b8b00b19fc8164"),
    (["enumerate", "E6", "--K", "2"],
     "398289e0d0aa0d9f711520693ae5ccfa5e906b2b1596d51f7cbacbfae193690e"),
]


@pytest.mark.parametrize(
    "argv, digest", PINNED_TABLE_DIGESTS,
    ids=[" ".join(argv) for argv, _ in PINNED_TABLE_DIGESTS],
)
def test_table_digests_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv, "--format", "table")
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the E6/T cache file, pinned when it became the (letter, parent)
# tree, and of the JSON of one product read from it, captured before roots
# were packed into ints
E6T_CACHE_DIGEST = "339ba221fce5de01c5a2985faf5074c785950398bd997938ac4f6d3f8f441b77"
E6T_PRODUCT_DIGEST = "d0a93268a0c6fb00589292f51009ff3b3702bc52b63e363a5f80d10eb3d048ee"


def test_e6t_cache_bytes_pinned(capsys, tmp_path):
    # the cold stage writes the pinned file and prints the uncached bytes;
    # the warm stage reads it back and prints what an uncached run prints
    code, cold, err = run_cli(capsys, "enumerate", "E6", "--cache-dir", str(tmp_path))
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(cold.encode()).hexdigest() == E6T_JSON_DIGEST
    cache = tmp_path / "E6-K1_2_3_4_5_6.json"
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == E6T_CACHE_DIGEST
    argv = ("multiply", "E6", "3,2,1", "w4")
    warm = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert warm == run_cli(capsys, *argv)
    assert warm[0] == EXIT_OK
    assert hashlib.sha256(warm[1].encode()).hexdigest() == E6T_PRODUCT_DIGEST


@pytest.mark.parametrize(
    "lie_type, K, max_length",
    [("A2", {1}, None), ("B3", {1, 2, 3}, None), ("F4", {1}, None), ("G2", {1, 2}, 3),
     ("A1", set(), None)],
    ids=["A2-P1", "B3-T", "F4-P1", "G2-T-truncated", "A1-point"],
)
def test_enumerate_json_matches_listing_builder(lie_type, K, max_length):
    table = enumerate_cosets(LieType.parse(lie_type), K, max_length=max_length)
    assert cli_listing(table) == json.dumps(listing_obj(table), indent=1, sort_keys=True)


# -- the JSON writer ------------------------------------------------------------

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | st.text()
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(st.integers(), max_size=5)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=30,
)


@given(_VALUES)
@example({"\u00e9\n\"\\": [-1, 2**100, True, None], "": ((), [], {}), "a\x00": 1.5})
@example([1, True, 2])
@example([[1, 2], (3,), [], -7])
def test_write_json_indents_nested_values_as_json_dumps(obj):
    # a value under a top-level key is json.dumps of it moved one space right
    out = io.StringIO()
    _write_json({"value": obj}, out)
    assert out.getvalue() == json.dumps({"value": obj}, indent=1, sort_keys=True) + "\n"


@given(_VALUES)
@example({"b": 1, "a": {"c": [1, {}]}, "": []})
@example({"a": [{1: 1}], "b": {1.5: 2}, "c": {True: 3}, "d": {None: 4}})
@example({})
@example([{"k": 1}])
def test_write_json_matches_json_dumps(obj):
    out = io.StringIO()
    _write_json(obj, out)
    assert out.getvalue() == json.dumps(obj, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("key", [1, 1.5, True, None, (1,)])
def test_write_json_rejects_non_str_top_level_keys(key):
    out = io.StringIO()
    for obj in ({key: 1}, {"a": 1, key: 2}):
        with pytest.raises(TypeError):
            _write_json(obj, out)
    # below the top level a key is encoded, or refused, as json.dumps does
    nested = {"a": [{key: 1}]}
    try:
        expected = json.dumps(nested, indent=1, sort_keys=True) + "\n"
    except TypeError:
        with pytest.raises(TypeError):
            _write_json(nested, out)
        assert out.getvalue() == ""  # every piece is rendered before the first write
    else:
        _write_json(nested, out)
        assert out.getvalue() == expected


class _Pieces:
    """An output stream that keeps each written piece."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)

    def writelines(self, texts):
        self.pieces.extend(texts)


def test_enumerate_listing_is_written_in_level_chunks(f4_full):
    # the listing goes out one chunk per level, with no string of the whole
    # output and no write per class
    spec = JobSpec("enumerate", f4_full.lie_type, (1, 2, 3, 4))
    out = _Pieces()
    _write_json(_run_enumerate(spec, f4_full), out)
    text = "".join(out.pieces)
    assert text == json.dumps(listing_obj(f4_full), indent=1, sort_keys=True) + "\n"
    assert len(out.pieces) <= 2 * 7 + len(f4_full.levels) + 2 < f4_full.total
    assert max(map(len, out.pieces)) < len(text) / 4


def test_multiply_1200_factors(capsys):
    # far above the top degree of F4/P1, so the product is zero
    argv = ["multiply", "F4", "--K", "1"] + ["w1"] * 1200
    assert run_cli(capsys, *argv, "--format", "text") == (EXIT_OK, "0\n", "")
    obj = run_json(capsys, *argv)
    w1 = {"r": 1, "i": 1, "word": [1]}
    assert obj == {
        "lie_type": "F4", "K": [1], "factors": [w1] * 1200, "degree": 1200, "terms": [],
    }


def test_gysin_groups_json(capsys):
    obj = run_json(capsys, "gysin", "F4", "--K", "1", "--degree", "12")
    by_degree = {g["degree"]: g for g in obj["groups"]}
    assert by_degree[6]["torsion"] == [2]
    assert by_degree[8] == {"degree": 8, "free_rank": 1, "torsion": [], "name": "Z"}
    assert by_degree[12]["torsion"] == [4]
    assert by_degree[7]["name"] == "0"


def test_giambelli_json(capsys):
    obj = run_json(capsys, "giambelli", "F4", "--K", "1", "--degree", "4")
    assert [e["polynomial"] for e in obj["classes"]] == ["-2*y4 + w1*y3", "y4"]


def test_giambelli_finds_generators_only_through_its_degree(capsys, monkeypatch):
    import schubert.cli as cli

    bounds = []
    real = cli.minimal_generators

    def spy(table, up_to=None):
        bounds.append(up_to)
        return real(table, up_to=up_to)

    monkeypatch.setattr(cli, "minimal_generators", spy)
    obj = run_json(capsys, "giambelli", "F4", "--K", "1", "--degree", "4")
    assert bounds == [4]
    assert [g["name"] for g in obj["generators"]] == ["w1", "y3", "y4"]
    assert [e["polynomial"] for e in obj["classes"]] == ["-2*y4 + w1*y3", "y4"]


def test_jobspec_validates_eagerly():
    from schubert.cli import CliParseError

    with pytest.raises(CliParseError):
        JobSpec("multiply", LieType("F", 4), (1,), ())
    with pytest.raises(ValueError):
        JobSpec("enumerate", LieType("F", 4), (7,))
    with pytest.raises(CliParseError):
        JobSpec("enumerate", LieType("F", 4), (1,), fmt="yaml")


def test_giambelli_above_the_top_level_is_empty(capsys):
    # A2 has one class at its top level 3 and none above; no monomial of
    # degree 10^9 is built
    top = run_json(capsys, "giambelli", "A2", "--degree", "3")
    assert [(e["r"], e["i"]) for e in top["classes"]] == [(3, 1)]
    for degree in (4, 10**9):
        obj = run_json(capsys, "giambelli", "A2", "--degree", str(degree))
        assert obj["classes"] == []
        assert [g["name"] for g in obj["generators"]] == ["w1", "w2"]


# -- robustness -------------------------------------------------------------------

# F4 runs keep to F4/P1: its node lists are "1" or ones the CLI rejects
_RANKS = {"A2": 2, "B3": 3, "F4": 4}
_F4_NODE_LISTS = ["1", " 1 ", "0", "5", "1,1", "1,", ",", "-1", "x", "1;2", "\u0661,9"]
_JUNK = st.text(alphabet="0123456789.,wW- x\u0661", max_size=6)


def _joined(lists):
    return lists.map(lambda items: ",".join(map(str, items)))


def _node_lists(lie):
    if lie == "F4":
        return st.just("1") | st.sampled_from(_F4_NODE_LISTS)
    rank = _RANKS[lie]
    valid = _joined(st.lists(st.integers(1, rank), min_size=1, max_size=rank, unique=True))
    loose = _joined(st.lists(st.integers(-1, rank + 1), max_size=rank + 1))
    return valid | valid | st.sampled_from(["all", "ALL", ""]) | loose | _JUNK


def _class_tokens(rank):
    def pairs(levels, indices):
        return st.tuples(levels, indices).map(lambda p: f"{p[0]}.{p[1]}")

    return (
        st.integers(1, rank).map(lambda n: f"w{n}")
        | pairs(st.integers(0, 6), st.integers(1, 4))
        | _joined(st.lists(st.integers(1, rank), min_size=1, max_size=4))
        | _joined(st.lists(st.integers(0, rank + 1), max_size=5))
        | pairs(st.integers(0, 30), st.integers(0, 99))
        | st.integers(0, 9).map(lambda n: f"W{n}")
        | _JUNK
    )


@st.composite
def _invocation(draw):
    lie = draw(st.sampled_from(sorted(_RANKS)))
    fmt = draw(st.sampled_from(["json", "table", "text"]))
    argv = [lie, "--K", draw(_node_lists(lie)), "--format", fmt]
    command = draw(st.sampled_from(["multiply", "giambelli", "presentation", "gysin"]))
    if command == "multiply":
        tokens = draw(st.lists(_class_tokens(_RANKS[lie]), min_size=1, max_size=3))
        return ["multiply", *argv, *tokens]
    degrees = st.integers(-2, 17).map(str)
    degree = draw(degrees | degrees | st.sampled_from([str(10**9), "x", "1.5", ""]))
    return [command, *argv, "--degree", degree]


@seed(20240917)
@settings(max_examples=150, deadline=None)
@given(_invocation())
@example(["presentation", "F4", "--K", "1", "--format", "json", "--degree", str(10**9)])
@example(["gysin", "A2", "--K", "1", "--format", "json", "--degree", str(10**9)])
def test_cli_survives_drawn_classes_and_node_lists(argv):
    # whatever the tokens, the CLI ends with one of its exit codes and never
    # lets an exception out
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_DOMAIN, EXIT_RESOURCE), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_console_entry_point_subprocess(subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-m", "schubert.cli", "enumerate", "F4", "--K", "1"],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 24
