"""In-memory span recorder wrapped around ellschub's public functions.

A span is (name, parent, start, end). The wrappers are installed from
outside: every ``ellschub`` module attribute that is bound to one of the
traced functions is replaced, so a call is recorded whichever module's name
it goes through (``classes`` and ``corpus`` bind ``delta`` by name, ``cli``
and ``duality`` bind ``bs_table``, ``cli`` binds ``enumerate_group``, ...).
Methods and the ``WeylGroup.longest`` property are patched on their class.

Spans are kept in flat arrays while the campaign runs and written out at
the end; self time is a span's duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute, span name). The module-level functions are replaced at
# every binding site; "Class.attr" entries are replaced on the class.
FUNCTIONS = (
    ("rootsys", "build_root_system", "rootsys.build_root_system"),
    ("rootsys", "langlands_dual", "rootsys.langlands_dual"),
    ("weyl", "enumerate_group", "weyl.enumerate_group"),
    ("elliptic", "delta", "elliptic.delta"),
    ("elliptic", "eval_monomial", "elliptic.eval_monomial"),
    ("elliptic", "transform_point", "elliptic.transform_point"),
    ("elliptic", "twist_point", "elliptic.twist_point"),
    ("elliptic", "sample_point", "elliptic.sample_point"),
    ("classes", "bs_step", "classes.bs_step"),
    ("classes", "bs_table", "classes.bs_table"),
    ("classes", "rmatrix_table", "classes.rmatrix_table"),
    ("duality", "duality_pairs", "duality.duality_pairs"),
    ("corpus", "corpus_sides", "corpus.corpus_sides"),
    ("cli", "main", "cli.main"),
    ("cli", "run_duality", "cli.runner"),
    ("cli", "run_recursions", "cli.runner"),
    ("cli", "run_corpus", "cli.runner"),
)
METHODS = (
    ("weyl", "WeylGroup.reduced_word", "weyl.reduced_word"),
    ("weyl", "WeylGroup.mul", "weyl.mul"),
    ("weyl", "WeylGroup.inv", "weyl.inv"),
    ("weyl", "WeylGroup.lmult", "weyl.lmult"),
    ("weyl", "WeylGroup.from_word", "weyl.from_word"),
    ("weyl", "WeylGroup.longest", "weyl.longest"),
    ("elliptic", "QSeries.__mul__", "elliptic.QSeries.mul"),
    ("elliptic", "QSeries.__rmul__", "elliptic.QSeries.mul"),
    ("elliptic", "QSeries.__truediv__", "elliptic.QSeries.truediv"),
    ("corpus", "Chart.sample", "corpus.Chart.sample"),
)
LAYERS = tuple(dict.fromkeys(name for _, _, name in FUNCTIONS + METHODS))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.delta_keys: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, on_call=None):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            if on_call is not None:
                on_call(args)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Replace every traced function at every binding site."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "ellschub" or n.startswith("ellschub.")}
        if "ellschub.cli" not in mods:
            raise RuntimeError("import ellschub.cli before installing the tracer")
        for mod_name, attr, name in FUNCTIONS:
            orig = getattr(mods[f"ellschub.{mod_name}"], attr)
            # distinct (a, b, ctx) argument tuples give delta's reuse ratio
            hook = self.delta_keys.add if name == "elliptic.delta" else None
            wrapped = self.wrap(orig, name, hook)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        for mod_name, path, name in METHODS:
            cls_name, attr = path.split(".")
            cls = getattr(mods[f"ellschub.{mod_name}"], cls_name)
            orig = cls.__dict__[attr]
            if isinstance(orig, property):
                setattr(cls, attr, property(self.wrap(orig.fget, name)))
            else:
                setattr(cls, attr, self.wrap(orig, name))

    def summary(self) -> dict:
        """Per span name: calls, self_s and inclusive total_s."""
        n = len(self.span_name)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in LAYERS}
        rows = [out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                for name in self.names]
        for i in range(n):
            row = rows[self.span_name[i]]
            dur = ends[i] - starts[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            row["total_s"] += dur
        return out

    def dump(self, stem: str) -> None:
        """Write the spans: <stem>.json names the columns of <stem>.bin."""
        with open(stem + ".bin", "wb") as fh:
            for col in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                col.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump({
                "spans": len(self.span_name),
                "names": self.names,
                "columns": [["name", "int32"], ["parent", "int32"],
                            ["start", "float64"], ["end", "float64"]],
            }, fh)
