"""Smoke tests of the scripts in `scripts/`, each run as its docstring says."""

import re
import subprocess
import sys
from pathlib import Path

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
