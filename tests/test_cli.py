"""CLI contract tests: argument parsing, exit codes, formats, caching.

Commands run in-process through main(argv) with captured stdout; one
subprocess test covers the installed console entry point.
"""

import json
import subprocess
import sys

import pytest

from schubert.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    JobSpec,
    main,
)


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


def test_resource_cap_exits_3(capsys):
    code, _, err = run_cli(capsys, "enumerate", "E6", "--max-elements", "10")
    assert code == EXIT_RESOURCE
    assert "resource limit" in err


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
    fresh = json.loads(out1)
    cached = json.loads(out2)
    assert fresh == cached


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path))
    _, out1, _ = run_cli(capsys, "enumerate", "B3", "--K", "3")
    assert (tmp_path / "B3-K3.json").exists()
    _, out2, _ = run_cli(capsys, "enumerate", "B3", "--K", "3")
    assert out1 == out2


def test_cache_content_mismatch_is_domain_error(capsys, tmp_path):
    run_cli(capsys, "enumerate", "A2", "--K", "1", "--cache-dir", str(tmp_path))
    (tmp_path / "A2-K2.json").write_bytes((tmp_path / "A2-K1.json").read_bytes())
    code, _, err = run_cli(
        capsys, "enumerate", "A2", "--K", "2", "--cache-dir", str(tmp_path)
    )
    assert code == EXIT_DOMAIN
    assert "cache file" in err


def _edit(change):
    def apply(raw):
        obj = json.loads(raw)
        change(obj)
        return json.dumps(obj).encode()

    return apply


def _set_word(k, word):
    return _edit(lambda obj: obj["elements"][k].update(word=word))


def _drop_top_level(obj):
    obj["elements"].pop()
    obj["beta"].pop()


def _mark_truncated(obj):
    _drop_top_level(obj)
    obj["complete"] = False


def _top_not_longest(obj):
    # full flag: keep [], [1], [2], [1,2]; the top class [1,2] has no tree
    # child, but sigma_2 lengthens it to [1,2,1]
    del obj["elements"][4:]
    obj["beta"] = [1, 2, 1]


def _duplicate_level_1(obj):
    obj["elements"].insert(2, {"r": 1, "i": 2, "word": [1]})
    obj["beta"] = [1, 2, 1]


# (K, change to the cache file) for A2; levels of K={1}: [], [1], [2,1]
CORRUPT_CACHES = {
    "truncated": ("1", lambda raw: raw[: len(raw) // 2]),
    "garbage": ("1", lambda raw: b"\x80\x04\x95\xff not a cache \xfe"),
    "json-list": ("1", lambda raw: b'["A2", [1], true]'),
    "json-missing-keys": ("1", lambda raw: b'{"lie_type": "A2", "K": [1]}'),
    "letter-0": ("1", _set_word(1, [0])),
    "letter-rank+1": ("1", _set_word(1, [3])),
    # true and 1.0 compare equal to 1; (1.0,) would find the parent (1,)
    "letter-true": ("1", _set_word(1, [True])),
    "tail-letter-float": ("1", _set_word(2, [2, 1.0])),
    "not-reduced": ("1", _set_word(2, [1, 1])),
    "not-minimal": ("1", _set_word(1, [2])),
    "tail-not-a-class": ("1", _set_word(2, [1, 2])),
    "out-of-position": ("1", _edit(lambda obj: obj["elements"][1].update(i=2))),
    # full flag: [1,2,1] and [2,1,2] are the same element
    "not-minimized": ("1,2", _set_word(5, [2, 1, 2])),
    "duplicate-class": ("1", _edit(_duplicate_level_1)),
    "beta-mismatch": ("1", _edit(lambda obj: obj.update(beta=[1, 1, 2]))),
    "top-level-dropped": ("1", _edit(_drop_top_level)),
    "marked-truncated": ("1", _edit(_mark_truncated)),
    "top-not-longest": ("1,2", _edit(_top_not_longest)),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_CACHES))
def test_corrupt_cache_is_domain_error(capsys, tmp_path, case):
    K, corrupt = CORRUPT_CACHES[case]
    argv = ["enumerate", "A2", "--K", K, "--cache-dir", str(tmp_path)]
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    (path,) = tmp_path.glob("A2-K*.json")
    path.write_bytes(corrupt(path.read_bytes()))
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_DOMAIN
    assert "domain error" in err and "corrupt coset-table cache" in err
    assert "Traceback" not in err
    assert out == ""


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
    from schubert.cartan import LieType
    from schubert.cli import CliParseError

    with pytest.raises(CliParseError):
        JobSpec("multiply", LieType("F", 4), (1,), ())
    with pytest.raises(ValueError):
        JobSpec("enumerate", LieType("F", 4), (7,))
    with pytest.raises(CliParseError):
        JobSpec("enumerate", LieType("F", 4), (1,), fmt="yaml")


def test_console_entry_point_subprocess(subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-m", "schubert.cli", "enumerate", "F4", "--K", "1"],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 24
