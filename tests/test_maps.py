"""Every change of variables, and the point draws, against their former
hand-written loops.

Each reference below is a map as it was written before all of them went
through ``elliptic.monomial_map`` (and the draws through the ring's
``QContext.draw``). The values must be equal (``==``), so on the
complex backend the products are formed in the same order, float for
float."""

import cmath
from fractions import Fraction
from random import Random

import pytest

from ellschub.classes import StepMemo
from ellschub.corpus import builtin_chart
from ellschub.duality import f_interpretation_point, pull_point, relabel_point
from ellschub.elliptic import (
    COMPLEX,
    EXACT,
    NU,
    ZETA,
    EvalPoint,
    QContext,
    eval_monomial,
    monomial_map,
    sample_point,
    transform_point,
    twist_point,
)
from ellschub.rootsys import COROOT, ROOT, _basis
from ellschub.weyl import group
from weyl_reference import LatticeVector, matrices, reflect

LABELS = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
          "D3", "D4", "F4", "G2")
CONTEXTS = (QContext(EXACT, order=2), QContext(COMPLEX, order=8, q=0.3))
CASES = [(label, ctx) for label in LABELS for ctx in CONTEXTS]


def reference_eval_monomial(point, exps):
    acc = None
    for v, e in zip(point.values, exps):
        if e == 0:
            continue
        term = v**e
        acc = term if acc is None else acc * term
    if acc is None:
        return Fraction(1) if point.ctx.backend == EXACT else complex(1)
    return acc


def reference_transform_point(point, s, sector, rs):
    rank = rs.rank
    offset = 0 if sector == ZETA else rank
    lattice = ROOT if sector == ZETA else COROOT
    old = point.values
    new = list(old)
    for t in range(1, rank + 1):
        image = reflect(rs, s, LatticeVector(_basis(rank, t), lattice)).coords
        acc = None
        for u, e in enumerate(image):
            if e == 0:
                continue
            term = old[offset + u] ** e
            acc = term if acc is None else acc * term
        new[offset + t - 1] = acc if acc is not None else old[offset + t - 1] ** 0
    return EvalPoint(point.ctx, tuple(new))


def reference_twist_point(point, matrix, rs):
    rank = rs.rank
    old = point.values
    new = list(old)
    for t in range(rank):
        acc = None
        for u in range(rank):
            e = matrix[u][t]
            if e == 0:
                continue
            term = old[u] ** e
            acc = term if acc is None else acc * term
        if acc is not None:
            new[t] = acc
    return EvalPoint(point.ctx, tuple(new))


def reference_pull_point(star, p):
    rank = len(star)
    vals = list(p.values)
    out = [None] * (2 * rank + 1)
    for s in range(1, rank + 1):
        out[s - 1] = vals[rank + star[s - 1] - 1] ** -1
        out[rank + s - 1] = vals[s - 1] ** -1
    out[2 * rank] = vals[2 * rank] ** -1
    return EvalPoint(p.ctx, tuple(out))


def reference_relabel_point(W, p):
    rank = W.rank
    vals = list(p.values)
    out = list(vals)
    for s in range(1, rank + 1):
        out[s - 1] = vals[W.star[s - 1] - 1]
        out[rank + s - 1] = vals[rank + W.star[s - 1] - 1]
    return EvalPoint(p.ctx, tuple(out))


def reference_f_interpretation_point(W, p):
    rank = W.rank
    vals = list(p.values)
    out = vals[rank:2 * rank] + [v ** -1 for v in vals[0:rank]] + [vals[2 * rank]]
    return EvalPoint(p.ctx, tuple(out))


def reference_to_point(chart, chart_values, ctx):
    vals = []
    for exps in chart.canonical_map:
        acc = Fraction(1) if ctx.backend == EXACT else complex(1)
        for value, e in zip(chart_values, exps):
            if e:
                acc = acc * value ** e
        vals.append(acc)
    return EvalPoint(ctx, tuple(vals))


def reference_draw(n, ctx, rng):
    """The point draw: one value per variable, in variable order."""
    out = []
    for _ in range(n):
        if ctx.backend == EXACT:
            while True:
                num = rng.randint(1, 99) * rng.choice((1, -1))
                den = rng.randint(1, 99)
                if num != den:
                    out.append(Fraction(num, den))
                    break
        else:
            r = rng.uniform(0.5, 2.0)
            phi = rng.uniform(0.0, 2 * cmath.pi)
            out.append(r * cmath.exp(1j * phi))
    return tuple(out)


def _monomials(rank, rng):
    """The exponent rows of the zero monomial, of each variable alone, of
    eight random monomials, and of eight more with exponents up to 9 in
    size, each with at least one negative exponent and half of them zero."""
    n = 2 * rank + 1
    out = [(0,) * n]
    out += [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    out += [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(8)]
    for _ in range(8):
        row = [rng.choice((0, rng.randint(-9, 9))) for _ in range(n)]
        row[rng.randrange(n)] = -rng.randint(1, 9)
        out.append(tuple(row))
    return out


@pytest.mark.parametrize("label,ctx", CASES, ids=[f"{l}-{c.backend}" for l, c in CASES])
def test_maps_equal_former_loops(label, ctx):
    W = group(label)
    rank = W.rank
    rng = Random(f"maps:{label}")
    point = sample_point(rank, ctx, Random(f"maps:{label}:{ctx.backend}"))
    assert point.values == reference_draw(2 * rank + 1, ctx,
                                          Random(f"maps:{label}:{ctx.backend}"))

    rows = _monomials(rank, rng)
    for m in rows:
        assert eval_monomial(point, m) == reference_eval_monomial(point, m)
    values = monomial_map(point.values, rows)
    assert values == tuple(reference_eval_monomial(point, m) for m in rows)
    assert {type(v) for v in values} == {type(point.values[0])}
    # a step memo's root and coroot values, read off their block of variables
    memo = StepMemo(W, point)
    assert memo.roots == tuple(
        reference_eval_monomial(point, beta + (0,) * (rank + 1)) for beta in W.roots)
    assert memo.coroots == tuple(
        reference_eval_monomial(point, (0,) * rank + gamma + (0,)) for gamma in W.coroots)

    for s in range(1, rank + 1):
        for sector in (ZETA, NU):
            assert (transform_point(point, s, sector, W.rs).values
                    == reference_transform_point(point, s, sector, W.rs).values)
    for matrix in matrices(W):
        assert (twist_point(point, matrix).values
                == reference_twist_point(point, matrix, W.rs).values)

    assert pull_point(W, point).values == reference_pull_point(W.star, point).values
    assert relabel_point(W, point).values == reference_relabel_point(W, point).values
    assert (f_interpretation_point(W, point).values
            == reference_f_interpretation_point(W, point).values)

    chart = builtin_chart(label)
    seed = f"maps:{label}:chart"
    chart_values, chart_point = chart.sample(ctx, Random(seed))
    draw = reference_draw(len(chart.chart_vars), ctx, Random(seed))
    assert chart_values == draw
    assert chart_point.values == reference_to_point(chart, chart_values, ctx).values
