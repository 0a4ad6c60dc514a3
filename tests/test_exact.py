"""The package computes with ints and Fractions only: no float reaches a count."""

import ast
import pathlib

import pytest

import curvecount

MODULES = sorted(pathlib.Path(curvecount.__file__).parent.glob("*.py"))


def float_sources(tree):
    """(line, what) for every float constant, true division and `float` name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, "float constant %r" % node.value
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"


def test_every_module_is_checked():
    assert {path.stem for path in MODULES} >= {
        "__init__", "cache", "classical", "cli", "genfunc", "kontsevich",
        "seqs", "series", "severi",
    }


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_has_no_float_arithmetic(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(float_sources(tree)) == []


def test_the_guard_sees_each_kind():
    tree = ast.parse("x = 0.5\ny = a / b\nz /= 2\nw = float(s)\n")
    assert sorted(line for line, _ in float_sources(tree)) == [1, 2, 3, 4]
