"""Every name the package exports is used by the library itself: a name in
ellschub.__all__ that only tests or tools call belongs in a test reference
module, not in the package namespace."""

import ast
import types
from pathlib import Path

import ellschub

SRC = Path(ellschub.__file__).resolve().parent


def loaded_names() -> set:
    """The names and attribute names that some module of the package other
    than __init__ loads in its code; docstrings, doctests and comments are
    not code, so they do not count."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_export_has_a_library_caller():
    exported = [name for name in ellschub.__all__
                if not isinstance(getattr(ellschub, name), types.ModuleType)]
    assert exported
    loaded = loaded_names()
    assert [name for name in exported if name not in loaded] == []
