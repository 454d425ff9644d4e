"""The benchmark's self-test runs as part of the test suite.

`perfbench/selftest.py` runs every workload at toy size through the
benchmark's own gates, so a change that breaks a gate fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes(subprocess_env):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        env=subprocess_env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
