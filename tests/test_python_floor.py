"""Every source file parses under the Python floor that pyproject.toml declares.

This checks syntax only, not library calls: a call newer than the floor, such
as itertools.batched (3.12), still parses, so it needs a reviewer's eye."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
FILES = sorted(p for part in ("src", "tests", "demos", "perfbench") for p in (ROOT / part).rglob("*.py"))


def test_floor_declared():
    assert FLOOR and int(FLOOR[1]) == 10


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, int(FLOOR[1])))
