"""Every name a module under src/jsjforge imports is read somewhere in it."""

import ast
from pathlib import Path

import pytest

import jsjforge

MODULES = sorted(Path(jsjforge.__file__).parent.glob("*.py"))


def unused_imports(source):
    """(line, name) for each imported name that the module never reads.

    A name counts as read when it appears as a loaded identifier
    (``name``, ``name.attr``, ``name(...)``) or is listed in ``__all__``.
    """
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant))
    return [(line, name) for line, name in bound if name not in read]


def test_detector_negative_control():
    src = ("import os, sys\nfrom math import pi as PI, tau\n"
           "__all__ = ['tau']\nprint(sys.argv)\n")
    assert unused_imports(src) == [(1, "os"), (2, "PI")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
