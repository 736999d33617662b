"""Checks on the library's source text."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "posetmc").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_library_has_no_assert(path):
    # `python -O` strips assert statements; soundness checks must raise instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}"


_FILE_READS = {"open", "read_text", "read_bytes"}


def _file_reads(tree):
    """(enclosing function, line) of every call named like a file read."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in _FILE_READS:
                found.append((fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return found


def test_files_are_read_only_by_the_shared_reader():
    # one UTF-8 reader, `poset._read_text`, serves poset, graph and formula files
    reads = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        reads += [(path.name, fn, line) for fn, line in _file_reads(tree)]
    assert [(name, fn) for name, fn, _ in reads] == [("poset.py", "_read_text")], reads


_FLOAT_TYPES = {"float16", "float32", "float64"}


def _float_uses(tree):
    """Lines of float dtype attributes and of `astype` calls to a float type."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _FLOAT_TYPES:
            lines.add(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "astype":
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                name = getattr(arg, "id", None) or getattr(arg, "attr", None) or getattr(arg, "value", None)
                if isinstance(name, str) and name.startswith("float"):
                    lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_library_has_no_float_relations(path):
    # relations are closed, covered and checked on bitsets; a float matrix
    # product would be a second, cubic mechanism with larger copies
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _float_uses(tree)
    assert not lines, f"{path.name}: float arithmetic on lines {lines}"
