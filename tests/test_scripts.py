"""Smoke tests of the scripts in `scripts/`, each run as its docstring says."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(env, script, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_f4_full_flag_verify_finds_every_relation_vanishing(subprocess_env):
    proc = _run(subprocess_env, "f4_full_flag.py", "--verify")
    assert proc.returncode == 0, proc.stderr
    count = int(re.search(r"^expanding (\d+) relations over 1152 ", proc.stdout, re.M).group(1))
    checks = [line for line in proc.stdout.splitlines() if " = 0  ... " in line]
    assert count > 0 and len(checks) == count
    assert all(line.endswith(" = 0  ... vanishes") for line in checks)


def test_circle_bundles_prints_the_f4_table(subprocess_env):
    proc = _run(subprocess_env, "circle_bundles.py", "F4/1", "--degree", "26")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "== circle bundle over F4/P1, degrees 0..26 =="
    assert "    23  Z" in lines and "        generated by -2*s(11,1) + s(11,2)" in lines
    assert lines[-2] == "    26  Z/2"


# sha256 of stdout, captured while the even groups came from a Smith form of
# each whole matrix and the kernels from a second factorisation; the odd
# kernel bases are printed nowhere else, so any change to them fails here
CIRCLE_BUNDLE_DIGESTS = [
    ((), "42b5152702d51168eeb3b50b67a1e450b4f3d1aac1cd50a8f9a974c2f054a15f"),
    (("E7/2",), "d0928d08f5a2cfcadc0ae9b195e9e18124469db1b5cc24f4d22b48dbd4f632fe"),
]


@pytest.mark.parametrize(
    "args, digest", CIRCLE_BUNDLE_DIGESTS,
    ids=[" ".join(args) or "default targets" for args, _ in CIRCLE_BUNDLE_DIGESTS],
)
def test_circle_bundles_stdout_pinned(subprocess_env, args, digest):
    proc = _run(subprocess_env, "circle_bundles.py", *args)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest
