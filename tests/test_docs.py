"""README's library examples and the doctests, run as tests.

The two Quick-start blocks of README run as written, and what they print
must be what their comments say.  Every module of the package and every
helper module of the tests runs through `doctest`.
"""

import contextlib
import doctest
import importlib
import io
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PACKAGE_MODULES = ["schubert"] + [
    f"schubert.{path.stem}"
    for path in sorted((ROOT / "src" / "schubert").glob("*.py"))
    if path.stem != "__init__"
]
HELPER_MODULES = [
    path.stem
    for path in sorted((ROOT / "tests").glob("*.py"))
    if not path.stem.startswith("test_") and path.stem != "conftest"
]


def test_readme_quick_start_prints_what_its_comments_say():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
    # the output of `pres.text()`, shown as comment lines indented by three
    shown = [line[4:] for line in blocks[0].splitlines() if line.startswith("#   ")]
    assert shown[0] == "Z[w1, y3, y4, y6] modulo 4 relations:"
    assert len(shown) == 5
    assert out.getvalue().splitlines() == ["2*s[3,1]", *shown, "Z/4 Z", "2"]


@pytest.mark.parametrize("name", PACKAGE_MODULES + HELPER_MODULES)
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
