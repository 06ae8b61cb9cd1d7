"""The scalar ring of a context is the only place that knows the scalar
type: no code in the package compares a `.backend` name, the command line
offers exactly the registered rings, a ring is its class and is registered
under that class's `backend` name, the base class makes no context, and
every copy of a context keeps its ring's class."""

import argparse
import ast
import copy
import pickle
from dataclasses import fields, replace

import pytest

from ellschub.cli import build_parser, main
from ellschub.elliptic import COMPLEX, EXACT, RINGS, QContext
from test_exports import library_modules


def _backend_comparisons(tree):
    """The line of every comparison with a `.backend` attribute on a side."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(isinstance(side, ast.Attribute) and side.attr == "backend"
                    for side in (node.left, *node.comparators))]


def test_no_code_compares_a_backend_name():
    found = {path.name: lines for path, tree in library_modules()
             if (lines := _backend_comparisons(tree))}
    assert found == {}
    # the check sees the form it forbids
    assert _backend_comparisons(ast.parse("x = ctx.backend == 'exact'")) == [1]


def test_backend_choices_are_the_rings():
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    assert list(RINGS) == [EXACT, COMPLEX]
    for command in commands.values():
        (backend,) = [action for action in command._actions if action.dest == "backend"]
        assert backend.choices == list(RINGS)


def test_a_ring_is_its_class():
    # the name is a class attribute, so no context can carry a name that
    # disagrees with its class
    assert RINGS == {ring.backend: ring for ring in RINGS.values()}
    for ring in RINGS.values():
        assert issubclass(ring, QContext)
        assert "backend" not in [field.name for field in fields(ring)]


def test_the_base_class_is_refused():
    # QContext names no ring, so it is refused when made, not at its first
    # ring method
    for kwargs in ({}, {"order": 3}, {"q": 0.5}):
        with pytest.raises(TypeError, match="make an ExactContext or a ComplexContext"):
            QContext(**kwargs)


def test_unknown_ring_is_refused(capsys):
    with pytest.raises(SystemExit) as info:
        main(["table", "--type", "A1", "--backend", "modp"])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("name", list(RINGS))
def test_copies_keep_the_ring(name):
    ctx = RINGS[name](order=5, q=0.25j)
    assert type(ctx) is RINGS[name] and isinstance(ctx, QContext)
    for other in (copy.copy(ctx), copy.deepcopy(ctx), pickle.loads(pickle.dumps(ctx))):
        assert type(other) is type(ctx) and other == ctx
        assert hash(other) == hash(ctx)
    changed = replace(ctx, order=7)
    assert type(changed) is type(ctx) and (changed.backend, changed.order) == (name, 7)
