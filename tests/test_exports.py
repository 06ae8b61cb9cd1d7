"""The package holds only code that the library runs: every name it exports,
and every module-level function and class of its modules, is loaded by the
library's own code. A name that only tests or tools call belongs in a test
reference module; the one exception is a function that the benchmark tracer
wraps by name (perfbench/spans.py), which must resolve for it."""

import ast
import types
from pathlib import Path

import ellschub
from test_benchmark_hooks import load_spans

SRC = Path(ellschub.__file__).resolve().parent


def library_modules():
    """(path, syntax tree) of every module of the package but __init__."""
    return [(path, ast.parse(path.read_text(), str(path)))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def loaded_names() -> set:
    """The names and attribute names that some module of the package other
    than __init__ loads in its code; docstrings, doctests and comments are
    not code, so they do not count."""
    names = set()
    for _, tree in library_modules():
        for node in ast.walk(tree):
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


def test_every_module_level_definition_has_a_library_caller():
    traced = {(module, attr) for module, attr, _ in load_spans().FUNCTIONS}
    loaded = loaded_names()
    defined = [(path.stem, node.name) for path, tree in library_modules()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert defined
    assert [f"{module}.{name}" for module, name in defined
            if name not in loaded and (module, name) not in traced] == []
