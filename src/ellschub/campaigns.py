"""Verification campaigns: each runner yields a (lines, failures) pair per
row of checks, with one JSON record per checked identity in lines.

Every campaign draws its points from seeded generators, so identical
arguments give identical records. One loop, ``_records``, draws each point,
redraws it by ``resample`` while it hits a singularity, and builds the
records of the point's rows of checks a row at a time, as they are read.
Each point runs in two phases: inside ``resample`` every delta value the
point's checks read is called and checked (``classes.prepare_point``), and
with it every singularity found; then, outside it, the tables are built a
row at a time, which cannot raise, as the records are read (an exact
series is expanded there, on its first read, which raises nothing).
Each row comes from a row builder made by ``record``, which encodes the
fields shared by all records of one kind of check once per campaign, and
compares and formats a whole row of checks under the verdict rule of the
context's ring (``QContext.verdicts``); a single check is a row of one.
"""

from __future__ import annotations

import json
from functools import partial
from random import Random

from .classes import (
    StepMemo,
    bs_table,
    c_recursion_left_sides,
    c_recursion_right_sides,
    normalization_factor,
    prepare_point,
    rmatrix_table,
    unnormalized_table,
)
from .corpus import corpus_checks
from .duality import double_dual_pairs, duality_pairs, f_interpretation_point
from .elliptic import QContext, SingularPointError, sample_point
from .weyl import WeylGroup, dual_group, group

DEFAULT_TOLS = {
    "duality": 1e-9,
    "recursions": 1e-8,
    "normalization": 1e-9,
    "double-dual": 1e-9,
    "corpus": 1e-9,
}
ATTEMPTS = 10  # point draws before a campaign gives up


def resample(seed, tag: str, compute):
    """compute(Random(f"{seed}:{tag}:{attempt}")) for attempt = 0, 1, ...
    until it raises no SingularPointError. compute owns its point, and the
    StepMemo that keeps the point's delta values goes with it."""
    last = None
    for attempt in range(ATTEMPTS):
        try:
            return compute(Random(f"{seed}:{tag}:{attempt}"))
        except SingularPointError as err:
            last = err
    raise SingularPointError(f"no nonsingular point after {ATTEMPTS} tries: {last}")


_SLOT = "\0"  # json.dumps escapes NUL, so it never occurs in its output


def record(check: str, label: str, ctx: QContext, tol: float, extra: str | None = None,
           **fields):
    """The row builder of one kind of check. row(k, omega_text, lhs_row,
    rhs_row, extra_texts) compares lhs_row with rhs_row pair by pair at the
    k-th point (ctx.verdicts) and returns (lines, failures): the text of
    each pair and the number of pairs that fail. A text is
    json.dumps(rec, sort_keys=True) of the record that holds check, type,
    fields and ctx.fields(), the JSON texts omega_text as omega_word and,
    if extra names a field, the pair's entry of extra_texts as that field
    ("sigma_word" or "simple"; it must sort after "residual"; "" if extra is
    None), and the point, the residual and the pass flag. A single check is
    a row of one pair. The shared fields are encoded here, once; the text
    up to the residual is joined once per row for either pass flag, and each
    line from it, the residual and the extra text at its exact size."""
    fixed = {"check": check, "type": label, **fields, **ctx.fields()}
    slots = ("omega_word", "pass", "point", "residual") + ((extra,) if extra else ())
    items = [f"{json.dumps(key)}: {json.dumps(fixed[key]) if key in fixed else _SLOT}"
             for key in sorted([*fixed, *slots])]
    parts = ("{" + ", ".join(items) + "}").split(_SLOT)
    if extra is None:
        parts.append("")
    head, after_omega, after_pass, after_point, after_residual, end = parts

    def row(k: int, omega_text: str, lhs_row, rhs_row, extra_texts):
        prefix = (f"{head}{omega_text}{after_omega}false{after_pass}{k}{after_point}",
                  f"{head}{omega_text}{after_omega}true{after_pass}{k}{after_point}")
        lines, failures = [], 0
        for (ok, residual), extra_text in zip(ctx.verdicts(tol, lhs_row, rhs_row), extra_texts):
            lines.append(f"{prefix[ok]}{residual}{after_residual}{extra_text}{end}")
            failures += not ok
        return lines, failures

    return row


def _word_texts(W: WeylGroup) -> list:
    """The reduced word of every element as JSON text, shared by all records."""
    return [json.dumps(W.reduced_word(w)) for w in range(W.order)]


def _records(points, seed, tag: str, rows):
    """The record rows of the points k < points: rows(rng) draws a point,
    computes every value of it that can raise, so that resample redraws the
    point under f"{tag}:{k}" on any singularity, and returns its rows of
    checks, (row builder, omega text, lhs row, rhs row, extra texts) each,
    which may be built as they are read as long as building raises nothing.
    So no record of a point is made before the point is final."""
    for k in range(points):
        for row, *cells in resample(seed, f"{tag}:{k}", rows):
            yield row(k, *cells)


def _pair_records(check, label, ctx, points, seed, tol, W, grids, **fields):
    """The records of lhs_rows[omega][sigma] against rhs_rows[omega][sigma],
    a row per omega, for (lhs_rows, rhs_rows) = grids(point): grids computes
    every delta of the point, and the rows may be iterators that build each
    row as it is read."""
    row = record(check, label, ctx, tol, "sigma_word", **fields)
    words = _word_texts(W)

    def rows(rng):
        lhs_rows, rhs_rows = grids(sample_point(W.rank, ctx, rng))
        return ((row, omega_text, lhs_row, rhs_row, words)
                for omega_text, lhs_row, rhs_row in zip(words, lhs_rows, rhs_rows))

    return _records(points, seed, check, rows)


def run_duality(label, ctx, points, seed, tol, flip_sign=False):
    W = group(label)
    Wdual = dual_group(W)
    return _pair_records("duality", label, ctx, points, seed, tol, W,
                         lambda point: duality_pairs(W, Wdual, point, flip_sign),
                         dual_type=str(Wdual.rs.label))


def run_double_dual(label, ctx, points, seed, tol):
    W = group(label)
    return _pair_records("double-dual", label, ctx, points, seed, tol, W,
                         lambda point: double_dual_pairs(W, point))


def run_recursions(label, ctx, points, seed, tol):
    """Bott-Samelson against R-matrix tables, for every omega: the two
    tables of a word are made as its row is read, after every delta of the
    point."""
    W = group(label)

    def rows(point):
        memo = StepMemo(W, point)
        prepare_point(memo, rmatrix=True)
        words = list(map(W.reduced_word, range(W.order)))
        return ((bs_table(memo, word) for word in words),
                (rmatrix_table(memo, word) for word in words))

    return _pair_records("recursions", label, ctx, points, seed, tol, W, rows)


def run_normalization(label, ctx, points, seed, tol):
    """The c-recursions, EE = c.E, and the f-interpretation of c."""
    W = group(label)
    Wdual = dual_group(W)
    t0 = W.longest
    words = _word_texts(W)
    simples = [json.dumps(s) for s in range(1, W.rank + 1)]
    c_right, c_left = (record(f"normalization/{kind}", label, ctx, tol, "simple")
                       for kind in ("c-right", "c-left"))
    scaling = record("normalization/scaling", label, ctx, tol, "sigma_word")
    f_interpretation = record("normalization/f-interpretation", label, ctx, tol)

    def rows(rng):
        """The rows of checks at a point, as a list; every check but the
        scaling is a row of one."""
        point = sample_point(W.rank, ctx, rng)
        memo = StepMemo(W, point)
        dual_memo = StepMemo(Wdual, f_interpretation_point(W, point), memo)
        out = []
        for omega, omega_text in enumerate(words):
            for s, simple in enumerate(simples, 1):
                for c_row, c_sides in ((c_right, c_recursion_right_sides),
                                       (c_left, c_recursion_left_sides)):
                    lhs, rhs = c_sides(memo, omega, s)
                    out.append((c_row, omega_text, (lhs,), (rhs,), (simple,)))
            c_val = normalization_factor(memo, omega)
            ee = bs_table(memo, W.reduced_word(omega))
            e_vals = unnormalized_table(memo, omega)
            out.append((scaling, omega_text, ee, [c_val * e for e in e_vals], words))
            # c(G, omega) as an inverted diagonal class of the dual group
            target = W.mul(W.inv(omega), t0)
            dual_e = unnormalized_table(dual_memo, target)[target]
            out.append((f_interpretation, omega_text, (c_val,), (dual_e,), ("",)))
        return out

    return _records(points, seed, "normalization", rows)


def _chart_rows(ctx, W, chart, encoded, sides, rng):
    """The rows of one corpus draw at a point of W drawn in chart by rng: a row
    of one check per encoded head (row builder, omega text, sigma text)."""
    chart_values, point = chart.sample(ctx, rng)
    return [(row, omega_text, (lhs,), (rhs,), (sigma_text,))
            for (row, omega_text, sigma_text), (lhs, rhs)
            in zip(encoded, sides(chart_values, StepMemo(W, point)))]


def run_corpus(ctx, points, seed, tol):
    """Every draw of corpus.corpus_checks: the engine against the shipped
    tables, the cross-table substitution, and the worked three-term sum."""
    for tag, label, chart, heads, sides in corpus_checks():
        encoded = [(record(check, label, ctx, tol, "sigma_word", **fields),
                    json.dumps(omega), json.dumps(sigma))
                   for check, fields, omega, sigma in heads]
        yield from _records(points, seed, tag,
                            partial(_chart_rows, ctx, group(label), chart, encoded, sides))
