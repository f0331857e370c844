"""Structural checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "equivab"


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield node.name


def test_only_exactlin_names_the_elimination_engine():
    # every kernel goes through exactlin.kernel: no other module holds an engine
    naming = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        if "SparseRREF" in _names(ast.parse(path.read_text(), filename=str(path)))
    }
    assert naming == {"exactlin.py"}
