"""Checks on the package source itself."""

import ast
import pathlib

import quadric_gaudin

SRC = pathlib.Path(quadric_gaudin.__file__).parent


def test_no_bare_assert_in_src():
    # bare asserts vanish under python -O; checks must raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert sorted(p.name for p in SRC.glob("*.py"))  # the walk saw the package
    assert found == []
