"""The benchmark's tracer (perfbench/spans.py) replaces every function and
method it lists by name; a name that no longer resolves would crash every
traced run, so each one is looked up here the way the tracer looks it up."""

import importlib
import importlib.util
from pathlib import Path

import ellschub.cli  # noqa: F401  the tracer imports ellschub through cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    assert spans.FUNCTIONS and spans.METHODS
    for mod_name, attr, _ in spans.FUNCTIONS:
        module = importlib.import_module(f"ellschub.{mod_name}")
        assert callable(getattr(module, attr, None)), f"ellschub.{mod_name}.{attr}"
    for mod_name, path, _ in spans.METHODS:
        cls_name, attr = path.split(".")
        cls = getattr(importlib.import_module(f"ellschub.{mod_name}"), cls_name)
        assert attr in cls.__dict__, f"ellschub.{mod_name}.{path}"
