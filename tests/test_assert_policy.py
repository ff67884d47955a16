"""Every ``assert`` in the package states an invariant no caller can reach.

Input checks must be real ``raise`` statements: ``python -O`` strips
asserts.  An assert is allowed only with an ``# invariant:`` comment on its
own line or in the comment block directly above it, saying why it holds.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import stabrenyi

SOURCES = sorted(Path(stabrenyi.__file__).parent.glob("*.py"))


def _has_invariant_comment(lines: list[str], lineno: int) -> bool:
    if "# invariant:" in lines[lineno - 1]:
        return True
    row = lineno - 2
    while row >= 0 and lines[row].lstrip().startswith("#"):
        if lines[row].lstrip().startswith("# invariant:"):
            return True
        row -= 1
    return False


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_assert_is_a_commented_invariant(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    bare = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Assert)
        and not _has_invariant_comment(lines, node.lineno)
    ]
    assert bare == []


def test_policy_sees_asserts():
    # the package keeps a few asserts; a parser that found none would pass
    # every file vacuously
    found = sum(
        isinstance(node, ast.Assert)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert found >= 1
