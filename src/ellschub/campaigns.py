"""Verification campaigns: one JSON-ready record per checked identity.

Every campaign draws its points from seeded generators, so identical
arguments give identical records. A point that hits a singularity is
redrawn by ``resample``; every record is built by ``record``.
"""

from __future__ import annotations

from functools import lru_cache
from random import Random

from . import corpus as corpus_mod
from .classes import (
    StepMemo,
    bs_table,
    c_recursion_left_sides,
    c_recursion_right_sides,
    normalization_factor,
    rmatrix_table,
    unnormalized_table,
)
from .duality import (
    double_dual_pairs,
    dual_element_map,
    duality_pairs,
    f_interpretation_point,
)
from .elliptic import COMPLEX, EXACT, QContext, SingularPointError, sample_point
from .rootsys import langlands_dual
from .weyl import WeylGroup, enumerate_group, group

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
    until it raises no SingularPointError."""
    last = None
    for attempt in range(ATTEMPTS):
        try:
            return compute(Random(f"{seed}:{tag}:{attempt}"))
        except SingularPointError as err:
            last = err
    raise SingularPointError(f"no nonsingular point after {ATTEMPTS} tries: {last}")


def ctx_fields(ctx: QContext) -> dict:
    """The backend settings a record or a point document carries."""
    fields = {"backend": ctx.backend, "qorder": ctx.order}
    if ctx.backend == COMPLEX:
        fields["q"] = [ctx.q.real, ctx.q.imag]
    return fields


def _compare(ctx: QContext, lhs, rhs, tol: float):
    """(pass, relative residual) under the backend's notion of equality."""
    if ctx.backend == EXACT:
        diff = lhs - rhs
        if ctx.is_zero(diff):
            return True, 0.0
        return False, ctx.magnitude(diff)
    scale = max(abs(lhs), abs(rhs))
    rel = 0.0 if scale == 0.0 else abs(lhs - rhs) / scale
    return rel <= tol, rel


def record(check: str, label: str, ctx: QContext, k: int, lhs, rhs, tol: float,
           **fields) -> dict:
    """The record of one check: lhs against rhs at the k-th point."""
    ok, rel = _compare(ctx, lhs, rhs, tol)
    return {"check": check, "type": label, **fields, **ctx_fields(ctx),
            "point": k, "residual": rel, "pass": ok}


@lru_cache(maxsize=None)
def _dual_group(label: str) -> WeylGroup:
    """The Weyl group of the Langlands dual, enumerated once per label from
    the dual root system (its roots in the order langlands_dual gives)."""
    return enumerate_group(langlands_dual(group(label).rs))


def _word_lists(W: WeylGroup) -> list:
    """The reduced word of every element as a list, built once per campaign
    and shared by its records."""
    return [list(W.reduced_word(w)) for w in range(W.order)]


def _per_point(W: WeylGroup, ctx, points, seed, tag: str, campaign) -> list:
    """The records campaign(k, point) for k < points, each at a point for W
    that is redrawn while the campaign hits a singularity."""
    records = []
    for k in range(points):
        records.extend(resample(seed, f"{tag}:{k}", lambda rng: campaign(
            k, sample_point(W.rank, ctx, rng))))
    return records


def run_duality(label, ctx, points, seed, tol, flip_sign=False):
    W = group(label)
    Wdual = _dual_group(label)
    dual_label = str(Wdual.rs.label)
    words = _word_lists(W)

    def campaign(k, point):
        pairs = duality_pairs(W, Wdual, point, flip_sign)
        return [record("duality", label, ctx, k, lhs, rhs, tol, dual_type=dual_label,
                       omega_word=words[omega], sigma_word=words[sigma])
                for (omega, sigma), (lhs, rhs) in sorted(pairs.items())]

    return _per_point(W, ctx, points, seed, "duality", campaign)


def run_recursions(label, ctx, points, seed, tol):
    """Bott-Samelson against R-matrix tables, for every omega."""
    W = group(label)
    words = _word_lists(W)

    def campaign(k, point):
        memo = StepMemo(W, point)
        out = []
        for omega in range(W.order):
            word = W.reduced_word(omega)
            bs_vals = bs_table(W, word, point, memo).values
            rm_vals = rmatrix_table(W, word, point).values
            out.extend(record("recursions", label, ctx, k, bs_vals[sigma],
                              rm_vals[sigma], tol, omega_word=words[omega],
                              sigma_word=words[sigma])
                       for sigma in range(W.order))
        return out

    return _per_point(W, ctx, points, seed, "recursions", campaign)


def run_normalization(label, ctx, points, seed, tol):
    """The c-recursions, EE = c.E, and the f-interpretation of c."""
    W = group(label)
    Wdual = _dual_group(label)
    dmap = dual_element_map(W, Wdual)
    t0 = W.longest
    words = _word_lists(W)

    def campaign(k, point):
        dual_point = f_interpretation_point(W, point)
        memo, dual_memo = StepMemo(W, point), StepMemo(Wdual, dual_point)
        out = []
        for omega in range(W.order):
            sides = []  # (kind, lhs, rhs, extra fields)
            for s in range(1, W.rank + 1):
                sides.append(("c-right", *c_recursion_right_sides(W, omega, s, point),
                              {"simple": s}))
                sides.append(("c-left", *c_recursion_left_sides(W, omega, s, point),
                              {"simple": s}))
            c_val = normalization_factor(W, omega, point)
            word = W.reduced_word(omega)
            ee = bs_table(W, word, point, memo).values
            e_vals = unnormalized_table(W, word, point, memo).values
            for sigma in range(W.order):
                sides.append(("scaling", ee[sigma], c_val * e_vals[sigma],
                              {"sigma_word": words[sigma]}))
            # c(G, omega) as an inverted diagonal class of the dual group
            target = W.mul(W.inv(omega), t0)
            dual_e = unnormalized_table(
                Wdual, W.reduced_word(target), dual_point, dual_memo
            ).values[dmap[target]]
            sides.append(("f-interpretation", c_val, dual_e, {}))
            out.extend(record(f"normalization/{kind}", label, ctx, k, lhs, rhs, tol,
                              omega_word=words[omega], **extra)
                       for kind, lhs, rhs, extra in sides)
        return out

    return _per_point(W, ctx, points, seed, "normalization", campaign)


def run_double_dual(label, ctx, points, seed, tol):
    W = group(label)
    words = _word_lists(W)

    def campaign(k, point):
        pairs = double_dual_pairs(W, point)
        return [record("double-dual", label, ctx, k, lhs, rhs, tol,
                       omega_word=words[omega], sigma_word=words[sigma])
                for (omega, sigma), (lhs, rhs) in sorted(pairs.items())]

    return _per_point(W, ctx, points, seed, "double-dual", campaign)


def run_corpus(ctx, points, seed, tol):
    """Engine vs the shipped tables, the cross-table substitution, and the
    worked three-term sum."""
    records = []
    for fname in corpus_mod.corpus_files():
        for n, entry in enumerate(corpus_mod.load_corpus(fname)):
            W = group(entry.group_label)
            chart = corpus_mod.builtin_chart(entry.group_label)

            def sides(rng):
                chart_values, point = chart.sample(ctx, rng)
                return corpus_mod.corpus_sides(entry, W, chart, chart_values, point)

            for k in range(points):
                engine, expected = resample(seed, f"corpus:{fname}:{n}:{k}", sides)
                records.append(record(
                    "corpus", entry.group_label, ctx, k, engine, expected, tol,
                    file=fname, omega_word=list(entry.omega_word),
                    sigma_word=list(entry.sigma_word),
                ))
    sp2_chart = corpus_mod.sp2_chart()
    for n, (sp2_entry, so5_entry) in enumerate(corpus_mod.cross_substitution_pairs()):
        def cross_sides(rng):
            chart_values, _ = sp2_chart.sample(ctx, rng)
            return corpus_mod.cross_substitution_sides(
                sp2_entry, so5_entry, chart_values, ctx)

        for k in range(points):
            lhs, rhs = resample(seed, f"cross:{n}:{k}", cross_sides)
            records.append(record(
                "corpus/cross-substitution", "C2", ctx, k, lhs, rhs, tol,
                dual_type="B2", omega_word=list(sp2_entry.omega_word),
                sigma_word=list(sp2_entry.sigma_word),
            ))
    W = group("C2")
    sigma = W.from_word(corpus_mod.WORKED_SUM_SIGMA)

    def values(rng):
        chart_values, point = sp2_chart.sample(ctx, rng)
        summed, factored = corpus_mod.worked_sum_values(chart_values, ctx)
        engine = bs_table(W, corpus_mod.WORKED_SUM_WORD, point).values[sigma]
        return summed, factored, engine

    for k in range(points):
        summed, factored, engine = resample(seed, f"worked:{k}", values)
        for kind, lhs, rhs in (
            ("sum-vs-factored", summed, factored),
            ("engine-vs-factored", engine, factored),
        ):
            records.append(record(
                f"corpus/worked-sum/{kind}", "C2", ctx, k, lhs, rhs, tol,
                omega_word=list(corpus_mod.WORKED_SUM_WORD),
                sigma_word=list(corpus_mod.WORKED_SUM_SIGMA),
            ))
    return records
