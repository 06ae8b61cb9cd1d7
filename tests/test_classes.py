import json
import sys
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul
from random import Random

import pytest

from classes_reference import (
    diagonal_closed_form,
    em_table,
    normalization_index_set,
    tangent_weights,
)
from ellschub import classes
from ellschub.classes import (
    StepMemo,
    bs_step,
    bs_table,
    c_recursion_left_sides,
    c_recursion_right_sides,
    initial_table,
    normalization_factor,
    rmatrix_table,
    unnormalized_table,
)
from ellschub.campaigns import resample
from ellschub.cli import main
from ellschub.corpus import builtin_chart
from ellschub.elliptic import (
    COMPLEX,
    EXACT,
    NU,
    EvalPoint,
    QContext,
    QSeries,
    SingularPointError,
    _power_rows,
    delta,
    monomial_map,
    sample_point,
    transform_point,
    twist_point,
)
from ellschub.rootsys import _basis
from ellschub.weyl import group
from weyl_reference import _matvec, bruhat_leq, coroot_matrices, matrices


def is_zero(v):
    return all(c == 0 for c in v.coeffs)


# The coordinate path of the references below: a root or coroot is a row of
# simple coordinates, its image under w a matrix product, and its value at a
# point a monomial in one block of variables.


def _zeta(point, roots) -> tuple:
    """e^(-beta) = prod zeta_t^(beta_t) at the point for each root row beta."""
    return monomial_map(point.values[:point.rank], roots)


def _nu(point, coroots) -> tuple:
    """h^gamma = prod nu_t^(gamma_t) at the point for each coroot row gamma."""
    rank = point.rank
    return monomial_map(point.values[rank:2 * rank], coroots)


def _neg(row) -> tuple:
    return tuple(-c for c in row)


def identity_support(W) -> tuple:
    """The support of the table of omega = id: the identity alone."""
    return tuple(sigma == W.identity for sigma in range(W.order))


def chart_point(label, ctx, seed):
    chart = builtin_chart(label)
    return chart.sample(ctx, Random(seed))


# --- initial table ----------------------------------------------------------


def test_initial_table_sl2(exact_ctx):
    # EE_id(X_id) = delta(mu1/mu2, h); EE_tau(X_id) = 0
    W = group("A1")
    (z1, z2, mu1, mu2, h), point = chart_point("A1", exact_ctx, "sl2-init")
    table = initial_table(StepMemo(W, point))
    expected = delta(mu1 / mu2, h, exact_ctx)
    assert table[W.identity] == expected
    assert is_zero(table[W.from_word((1,))])


def test_initial_table_multiplies_from_the_first_factor(exact_ctx, monkeypatch):
    # A2 has three positive coroots: the product of their three delta
    # values takes two series products, none of them by the constant one
    from ellschub.elliptic import QSeries

    W = group("A2")
    point = sample_point(2, exact_ctx, Random("a2-products"))
    memo = StepMemo(W, point)
    expected = initial_table(memo)  # fills the memo's deltas
    products = []
    series_mul = QSeries.__mul__

    def counting(a, b):
        products.append(b)
        return series_mul(a, b)

    monkeypatch.setattr(QSeries, "__mul__", counting)
    assert initial_table(memo) == expected
    assert len(products) == 2


def test_initial_table_so5(exact_ctx):
    # the four-factor product (mu1^2|h)(mu1/mu2|h)(mu1 mu2|h)(mu2^2|h)
    W = group("B2")
    (z1, z2, mu1, mu2, h), point = chart_point("B2", exact_ctx, "so5-init")
    table = initial_table(StepMemo(W, point))
    expected = (
        delta(mu1**2, h, exact_ctx)
        * delta(mu1 / mu2, h, exact_ctx)
        * delta(mu1 * mu2, h, exact_ctx)
        * delta(mu2**2, h, exact_ctx)
    )
    assert table[W.identity] == expected
    for sigma in range(W.order):
        if sigma != W.identity:
            assert is_zero(table[sigma])


# --- Bott-Samelson steps ----------------------------------------------------


def test_bs_step_sl2_word_matches_example(exact_ctx):
    # EE_id(X_tau) = delta(z2/z1, mu2/mu1); EE_tau(X_tau) = delta(z1/z2, h)
    W = group("A1")
    (z1, z2, mu1, mu2, h), point = chart_point("A1", exact_ctx, "sl2-word")
    tau = W.from_word((1,))
    memo = StepMemo(W, point)
    # the initial product reads tau(gamma) for tau = (s1)^-1, and the one
    # step reads nu_1 as the coroot alpha_1^v itself
    table, _ = bs_step(memo, initial_table(memo, tau), identity_support(W), 1,
                       W.root_index[W.identity][0])
    assert table[W.identity] == delta(z2 / z1, mu2 / mu1, exact_ctx)
    assert table[tau] == delta(z1 / z2, h, exact_ctx)


def test_bs_step_requires_transformed_input(exact_ctx):
    # the initial product read at u = product(word)^-1 and the coroot index
    # of each step are what bs_table provides
    W = group("A2")
    point = sample_point(W.rank, exact_ctx, Random("a2-chain"))
    memo = StepMemo(W, point)
    u = W.from_word((2, 1))  # (s1 s2)^-1
    table = (initial_table(memo, u), identity_support(W))
    # step 1 reads s2(alpha_1^v), step 2 alpha_2^v
    for s, g in ((1, W.root_index[W.from_word((2,))][0]), (2, W.root_index[W.identity][1])):
        table = bs_step(memo, *table, s, g)
    assert bs_table(StepMemo(W, point), (1, 2)) == table[0]
    untransformed = (initial_table(memo), identity_support(W))
    for s in (1, 2):
        untransformed = bs_step(memo, *untransformed, s, W.root_index[W.identity][s - 1])
    assert table[0] != untransformed[0]


def test_bs_round_trip_single_letter(exact_ctx):
    for label in ("A1", "B2"):
        W = group(label)
        point = sample_point(W.rank, exact_ctx, Random(f"round-{label}"))
        base = initial_table(StepMemo(W, point))
        for s in range(1, W.rank + 1):
            again = bs_table(StepMemo(W, point), (s, s))
            assert again == base


def test_bs_so5_diagonal_entry(exact_ctx):
    W = group("B2")
    (z1, z2, mu1, mu2, h), point = chart_point("B2", exact_ctx, "so5-diag")
    table = bs_table(StepMemo(W, point), (1,))
    s1 = W.from_word((1,))
    expected = (
        delta(mu1**2, h, exact_ctx)
        * delta(mu1 * mu2, h, exact_ctx)
        * delta(mu2**2, h, exact_ctx)
        * delta(z1 / z2, h, exact_ctx)
    )
    assert table[s1] == expected


def test_bs_word_independence_b2(exact_ctx):
    W = group("B2")
    point = sample_point(2, exact_ctx, Random("b2-words"))
    assert bs_table(StepMemo(W, point), (1, 2, 1, 2)) == bs_table(
        StepMemo(W, point), (2, 1, 2, 1)
    )


def test_bs_vanishing_matches_bruhat_a2(exact_ctx):
    W = group("A2")
    point = sample_point(2, exact_ctx, Random("a2-vanish"))
    omega = W.from_word((1, 2))
    table = bs_table(StepMemo(W, point), (1, 2))
    for sigma in range(W.order):
        assert is_zero(table[sigma]) == (not bruhat_leq(W, sigma, omega))
    # the incomparable set here has exactly two elements: s2 s1 and tau0
    zeros = [sigma for sigma in range(W.order) if is_zero(table[sigma])]
    assert sorted(zeros) == sorted([W.from_word((2, 1)), W.longest])


def test_table_word_and_omega(exact_ctx):
    # a word that is not reduced gives the table of its product
    W = group("B2")
    point = sample_point(2, exact_ctx, Random("b2-meta"))
    assert W.from_word((1, 1, 2)) == W.from_word((2,))
    assert bs_table(StepMemo(W, point), (1, 1, 2)) == bs_table(StepMemo(W, point), (2,))


# --- R-matrix ----------------------------------------------------------------


def test_rmatrix_empty_word_is_initial(exact_ctx):
    W = group("B2")
    point = sample_point(2, exact_ctx, Random("rm-init"))
    memo = StepMemo(W, point)
    assert rmatrix_table(memo, ()) == initial_table(memo)


def test_rmatrix_sl2_example(exact_ctx):
    W = group("A1")
    (z1, z2, mu1, mu2, h), point = chart_point("A1", exact_ctx, "rm-sl2")
    table = rmatrix_table(StepMemo(W, point), (1,))
    assert table[W.identity] == delta(z2 / z1, mu2 / mu1, exact_ctx)
    assert table[W.from_word((1,))] == delta(z1 / z2, h, exact_ctx)


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_rmatrix_agrees_with_bs(label, exact_ctx):
    W = group(label)
    for k in range(5):
        point = sample_point(W.rank, exact_ctx, Random(f"rm-{label}-{k}"))
        memo = StepMemo(W, point)
        for omega in range(W.order):
            word = W.reduced_word(omega)
            assert rmatrix_table(memo, word) == bs_table(memo, word)


def test_rmatrix_single_entry(exact_ctx):
    W = group("A2")
    point = sample_point(2, exact_ctx, Random("rm-entry"))
    word = (1, 2)
    table = bs_table(StepMemo(W, point), word)
    rmatrix = rmatrix_table(StepMemo(W, point), word)
    for sigma in range(W.order):
        assert rmatrix[sigma] == table[sigma]


def test_rmatrix_nonreduced_word(exact_ctx):
    W = group("B2")
    point = sample_point(2, exact_ctx, Random("rm-nonred"))
    memo = StepMemo(W, point)
    assert rmatrix_table(memo, (1, 1)) == initial_table(memo)


def test_rmatrix_memory_is_one_sigma_at_a_time(complex_ctx):
    # the longest word of B3: a memo of (step, twist) values kept for the
    # whole table, or kept alive past its sigma, would take over 1 MB
    import tracemalloc

    W = group("B3")
    memo = StepMemo(W, sample_point(W.rank, complex_ctx, Random("rm-memory")))
    word = W.reduced_word(W.longest)
    tracemalloc.start()
    try:
        table = rmatrix_table(memo, word)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == W.order
    assert peak < 256 * 1024


# --- normalization -----------------------------------------------------------


def test_c_at_longest_is_one(exact_ctx):
    for label in ("A1", "A2", "B2"):
        W = group(label)
        point = sample_point(W.rank, exact_ctx, Random(f"c1-{label}"))
        assert normalization_factor(StepMemo(W, point), W.longest) == exact_ctx.one()


def test_c_at_identity_sl2(exact_ctx):
    W = group("A1")
    (z1, z2, mu1, mu2, h), point = chart_point("A1", exact_ctx, "c-sl2")
    assert (normalization_factor(StepMemo(W, point), W.identity)
            == delta(mu1 / mu2, h, exact_ctx))


def test_c_recursions_b2(exact_ctx):
    W = group("B2")
    point = sample_point(2, exact_ctx, Random("c-rec"))
    memo = StepMemo(W, point)
    for omega in range(W.order):
        for s in (1, 2):
            for sides in (c_recursion_right_sides, c_recursion_left_sides):
                lhs, rhs = sides(memo, omega, s)
                assert is_zero(lhs - rhs)


def test_tangent_sets():
    for label in ("A2", "B2"):
        W = group(label)
        t0 = W.longest
        assert tangent_weights(W, W.identity) == frozenset()
        assert tangent_weights(W, t0) == frozenset(W.rs.positive_roots)
        for omega in range(W.order):
            assert len(tangent_weights(W, omega)) == W.length(omega)


def test_normalization_index_set_identity():
    # F(G, omega) = Phi^v_+ minus T(G^v, omega^{-1})
    from ellschub.weyl import dual_group

    W = group("B2")
    Wd = dual_group(W)
    allv = frozenset(W.rs.positive_coroots)
    for omega in range(W.order):
        expected = allv - tangent_weights(Wd, Wd.inv(omega))
        assert normalization_index_set(W, omega) == expected


@pytest.mark.parametrize("label", ["B2", "C2"])
def test_f_interpretation(label, exact_ctx):
    # c(G, omega) equals the inverted diagonal class of the dual group
    from ellschub.duality import f_interpretation_point
    from ellschub.weyl import dual_group

    W = group(label)
    Wd = dual_group(W)
    t0 = W.longest
    point = sample_point(2, exact_ctx, Random(f"fint-{label}"))
    dual_point = f_interpretation_point(W, point)
    memo = StepMemo(W, point)
    for omega in range(W.order):
        target = W.mul(W.inv(omega), t0)
        diag = unnormalized_table(StepMemo(Wd, dual_point), target)[target]
        assert diag == normalization_factor(memo, omega)


# --- unnormalized and Em -----------------------------------------------------


def test_unnormalized_identity_seed(exact_ctx):
    W = group("B2")
    point = sample_point(2, exact_ctx, Random("e-seed"))
    table = unnormalized_table(StepMemo(W, point), W.identity)
    assert table[W.identity] == exact_ctx.one()
    assert all(is_zero(v) for i, v in enumerate(table) if i != W.identity)


@pytest.mark.parametrize("label", ["A1", "B2"])
def test_scaling_identity(label, exact_ctx):
    # EE = c(G, omega) . E for every omega, several points
    W = group(label)
    for k in range(3):
        point = sample_point(W.rank, exact_ctx, Random(f"scale-{label}-{k}"))
        memo = StepMemo(W, point)
        for omega in range(W.order):
            ee = bs_table(StepMemo(W, point), W.reduced_word(omega))
            e = unnormalized_table(StepMemo(W, point), omega)
            c = normalization_factor(memo, omega)
            for sigma in range(W.order):
                assert ee[sigma] == c * e[sigma]


def test_diagonal_closed_form_b2(exact_ctx):
    W = group("B2")
    point = sample_point(2, exact_ctx, Random("diag"))
    for sigma in range(W.order):
        table = unnormalized_table(StepMemo(W, point), sigma)
        assert table[sigma] == diagonal_closed_form(StepMemo(W, point), sigma)


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_ee_longest_diagonal_product(label, exact_ctx):
    # EE_tau0(X_tau0) = prod over all reflections of delta(e^(alpha_s), h)
    from ellschub.elliptic import eval_monomial

    W = group(label)
    point = sample_point(W.rank, exact_ctx, Random(f"eetop-{label}"))
    t0 = W.longest
    table = bs_table(StepMemo(W, point), W.reduced_word(t0))
    acc = exact_ctx.one()
    for beta in W.rs.positive_roots:
        exps = tuple(-c for c in beta) + (0,) * (W.rank + 1)  # e^(beta) in zeta
        acc = acc * delta(eval_monomial(point, exps), point.h, exact_ctx)
    assert table[t0] == acc


def test_em_table(exact_ctx):
    W = group("A2")
    point = sample_point(2, exact_ctx, Random("em"))
    assert em_table(StepMemo(W, point), ())[W.identity] == exact_ctx.one()
    ee = bs_table(StepMemo(W, point), (1, 2))
    em = em_table(StepMemo(W, point), (1, 2))
    full = initial_table(StepMemo(W, point))[W.identity]
    for sigma in range(W.order):
        assert em[sigma] * full == ee[sigma]
    # the EE/Em ratio is sigma-independent per omega
    ratios = {
        sigma: (ee[sigma] / em[sigma]).coeffs
        for sigma in range(W.order)
        if not is_zero(em[sigma])
    }
    assert len(set(ratios.values())) == 1


def test_em_sl2_entry(exact_ctx):
    W = group("A1")
    (z1, z2, mu1, mu2, h), point = chart_point("A1", exact_ctx, "em-sl2")
    em = em_table(StepMemo(W, point), (1,))
    expected = delta(z2 / z1, mu2 / mu1, exact_ctx) / delta(mu1 / mu2, h, exact_ctx)
    assert em[W.identity] == expected


# --- complex backend ---------------------------------------------------------


def test_complex_zero_detection(capsys):
    # the table command flags as zero exactly the entries off the Bruhat
    # interval, relative to the largest entry
    W = group("B2")
    omega = W.from_word((1, 2))
    assert main(["table", "--type", "B2", "--word", "1,2", "--backend", "complex",
                 "--chart", "none"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert len(entries) == W.order
    for sigma, entry in enumerate(entries):
        assert entry["zero"] == (not bruhat_leq(W, sigma, omega))


def test_complex_agrees_with_exact_structure():
    ctx = QContext(COMPLEX, order=8, q=0.25)
    W = group("A2")
    point = sample_point(2, ctx, Random("cplx-rm"))
    memo = StepMemo(W, point)
    for omega in range(W.order):
        word = W.reduced_word(omega)
        bs = bs_table(memo, word)
        rm = rmatrix_table(memo, word)
        for sigma in range(W.order):
            scale = max(abs(bs[sigma]), abs(rm[sigma]))
            assert abs(bs[sigma] - rm[sigma]) <= 1e-9 * max(scale, 1e-30)


def test_complex_word_independence():
    ctx = QContext(COMPLEX, order=8, q=0.3)
    W = group("B2")
    point = sample_point(2, ctx, Random("cplx-words"))
    a = bs_table(StepMemo(W, point), (1, 2, 1, 2))
    b = bs_table(StepMemo(W, point), (2, 1, 2, 1))
    for sigma in range(W.order):
        scale = max(abs(a[sigma]), abs(b[sigma]))
        assert abs(a[sigma] - b[sigma]) <= 1e-9 * max(scale, 1e-30)


# --- the per-root recursion steps against the per-sigma originals -----------


def _column(matrix, s):
    return tuple(row[s - 1] for row in matrix)


@lru_cache(maxsize=1 << 16)
def reference_delta(a, b, ctx):
    """delta, each value computed once: the loops below ask for every delta
    of every sigma."""
    return delta(a, b, ctx)


def reference_h_product(point, values):
    """prod delta(x, h) over the values x, from the first factor."""
    factors = [reference_delta(x, point.h, point.ctx) for x in values]
    return reduce(mul, factors) if factors else point.ctx.one()


def reference_point_chain(W, word, point, kept=None):
    """points[j] is where the table for word[:j] lives: the point
    nu-transformed by the letters word[j:], the last one first. kept, if
    given, is a dict that keeps the point of each suffix for the next word."""
    kept = {} if kept is None else kept
    points = [point]
    for j in range(len(word) - 1, -1, -1):
        p = kept.get(word[j:])
        if p is None:
            p = kept[word[j:]] = transform_point(points[-1], word[j], NU, W.rs)
        points.append(p)
    points.reverse()
    return points


def chain_values(W, word, point):
    """(the x of the initial product of delta(x, h), [(nu_s, nu_s^-1) of
    each step]), read off the point chain."""
    points = reference_point_chain(W, word, point)
    start = _nu(points[0], map(_neg, W.rs.positive_coroots))
    return start, [_nu(p, (_basis(W.rank, s), _neg(_basis(W.rank, s))))
                   for s, p in zip(word, points[1:])]


def indexed_values(W, word, point):
    """chain_values read at the point itself: step j reads nu_s as
    h^(u(alpha_s^v)) for u = product(word[j+1:])^-1, and the initial product
    reads h^(-u(gamma)) for u = product(word)^-1."""
    def image(letters, v):
        return _matvec(coroot_matrices(W)[W.inv(W.from_word(letters))], v)

    start = _nu(point, (_neg(image(word, gamma)) for gamma in W.rs.positive_coroots))
    steps = []
    for j, s in enumerate(word):
        gamma = image(word[j + 1:], _basis(W.rank, s))
        steps.append(_nu(point, (gamma, _neg(gamma))))
    return start, steps


def reference_bs_step(W, values, s, nu_s, point):
    """bs_step as a loop over sigma, both coefficients recomputed per sigma;
    the zeta values and h are the point's at every step."""
    den = reference_delta(nu_s, point.h, point.ctx)
    out = []
    for sigma in range(W.order):
        (sigma_zeta,) = _zeta(point, (_column(matrices(W)[sigma], s),))
        c_keep = reference_delta(sigma_zeta, nu_s, point.ctx) / den
        c_mix = reference_delta(sigma_zeta, point.h, point.ctx) / den
        out.append(c_keep * values[sigma] + c_mix * values[W.rmult(sigma, s)])
    return out


def reference_bs_table(W, word, point, read=chain_values):
    """bs_table with the values of `read`."""
    start, steps = read(W, word, point)
    values = [point.ctx.zero()] * W.order
    values[W.identity] = reference_h_product(point, start)
    for s, (nu_s, _) in zip(word, steps):
        values = reference_bs_step(W, values, s, nu_s, point)
    return tuple(values)


def reference_unnormalized_table(W, word, point, read=chain_values):
    """unnormalized_table as a loop over sigma along a reduced word, with
    the values of `read`."""
    ctx, h = point.ctx, point.h
    values = [ctx.zero()] * W.order
    values[W.identity] = ctx.one()
    for s, (nu_s, _) in zip(word, read(W, word, point)[1]):
        new_values = []
        for sigma in range(W.order):
            (sigma_zeta,) = _zeta(point, (_column(matrices(W)[sigma], s),))
            new_values.append(
                reference_delta(sigma_zeta, nu_s, ctx) * values[sigma]
                + reference_delta(sigma_zeta, h, ctx) * values[W.rmult(sigma, s)])
        values = new_values
    return tuple(values)


def reference_rmatrix_values(W, word, point, negated_root=False):
    """R-matrix table with both coefficients recomputed at every memo miss.
    zeta_s^-1 is read at the twisted point, or, if negated_root, as the
    value at the point itself of the root -twist(alpha_s), as indexed_values
    reads nu_s^-1."""
    memo, twists = {}, {}

    def ev(word, sigma, twist):
        key = (len(word), sigma, twist)
        if key in memo:
            return memo[key]
        if twist not in twists:
            twists[twist] = twist_point(point, matrices(W)[twist])
        p = twists[twist]
        if not word:
            out = point.ctx.zero()
            if sigma == W.identity:
                out = point.ctx.one()
                for gamma in W.rs.positive_coroots:
                    (value,) = _nu(p, (_neg(gamma),))
                    out = out * reference_delta(value, p.h, p.ctx)
        else:
            s, rest = word[0], word[1:]
            rank = W.rank
            gamma = _matvec(coroot_matrices(W)[W.inv(W.from_word(rest))], _basis(rank, s))
            gamma_val, gamma_inv = _nu(p, (gamma, _neg(gamma)))
            zeta_s, zeta_inv = _zeta(p, (_basis(rank, s), _neg(_basis(rank, s))))
            if negated_root:
                (zeta_inv,) = _zeta(point, (_neg(_column(matrices(W)[twist], s)),))
            den = reference_delta(gamma_inv, p.h, p.ctx)
            c_keep = reference_delta(zeta_s, gamma_val, p.ctx) / den
            c_mix = reference_delta(zeta_inv, p.h, p.ctx) / den
            out = (c_keep * ev(rest, sigma, twist)
                   + c_mix * ev(rest, W.lmult(s, sigma), W.rmult(twist, s)))
        memo[key] = out
        return out

    return tuple(ev(tuple(word), sigma, W.identity) for sigma in range(W.order))


# The exact cases read nu_s off the point chain and zeta_s^-1 at the twisted
# point, the complex one both at the table's own point by index, as the
# library does: the two differ in the last bits of a float.
REFERENCE_CASES = [
    ("B2", QContext(EXACT, order=4), chain_values),
    ("G2", QContext(EXACT, order=3), chain_values),
    ("B3", QContext(COMPLEX, order=8, q=0.3), indexed_values),
]


@pytest.mark.parametrize("label,ctx,read", REFERENCE_CASES,
                         ids=[f"{c[0]}-{c[1].backend}" for c in REFERENCE_CASES])
def test_recursions_equal_per_sigma_reference(label, ctx, read):
    """Identical values, float for float on the complex backend."""
    W = group(label)
    point = sample_point(W.rank, ctx, Random(f"reference:{label}"))
    for w in range(W.order):
        word = W.reduced_word(w)
        assert (bs_table(StepMemo(W, point), word)
                == reference_bs_table(W, word, point, read))
        assert (unnormalized_table(StepMemo(W, point), w)
                == reference_unnormalized_table(W, word, point, read))
        assert (rmatrix_table(StepMemo(W, point), word)
                == reference_rmatrix_values(W, word, point, read is indexed_values))
    # words that are not reduced take length-decreasing steps
    for word in ((1, 1), (1, 2, 2, 1), (2, 1, 2, 2, 1)):
        assert (bs_table(StepMemo(W, point), word)
                == reference_bs_table(W, word, point, read))


def reduced_words(W):
    """Every reduced word of every element of W, each once."""
    stack = [((), W.identity)]
    while stack:
        word, w = stack.pop()
        yield word
        for s in range(1, W.rank + 1):
            if W.length(W.lmult(s, w)) > W.length(w):
                stack.append(((s,) + word, W.lmult(s, w)))


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "D4"])
def test_steps_read_nu_s_where_the_point_chain_did(label, monkeypatch):
    """For every reduced word, each step reads as nu_s the coroot whose value
    at the table's own point is nu_s at the step's point of the chain, and
    the initial product is the one at the chain's first point."""
    W = group(label)
    point = sample_point(W.rank, QContext(EXACT, order=1), Random(f"coroot-steps:{label}"))
    memo = StepMemo(W, point)
    steps, tables = [], {}

    def initial(memo, u=W.identity):
        """initial_table, computed once per u: it reads the word only through u."""
        if u not in tables:
            tables[u] = initial_table(memo, u)
        return tables[u]

    # every step returns its table, so bs_table returns the initial one
    monkeypatch.setattr(classes, "initial_table", initial)
    monkeypatch.setattr(classes, "bs_step", lambda memo, values, support, s, g:
                        steps.append((s, g)) or (values, support))
    chain, products = {}, {}
    for word in reduced_words(W):
        steps.clear()
        start = bs_table(memo, word)[W.identity]
        points = reference_point_chain(W, word, point, chain)
        assert [s for s, _ in steps] == list(word)
        for (s, g), outer in zip(steps, points[1:]):
            assert memo.coroots[g] == outer.values[W.rank + s - 1]
        # the words of one element meet one first point
        if points[0] not in products:
            products[points[0]] = memo.delta_product(
                (x, point.h) for x in _nu(points[0], map(_neg, W.rs.positive_coroots)))
        assert start == products[points[0]]


def dense_step_values(W, values, support, s, coeffs, zero):
    """_step_values as a loop over every sigma, each entry computed at its
    own sigma: sigma keeps its two terms inside the old support, and a sigma
    outside it joins the support with its one term c_mix * values[sigma s]."""
    i = s - 1
    rmult, root_index = W.rmult_table, W.root_index
    out = [zero] * len(values)
    grown = list(support)
    for sigma, keep in enumerate(support):
        other = rmult[sigma][i]
        if keep:
            c = coeffs[root_index[sigma][i]]
            if support[other]:
                out[sigma] = c[0] * values[sigma] + c[1] * values[other]
            else:
                out[sigma] = c[0] * values[sigma]
        elif support[other]:
            out[sigma] = coeffs[root_index[sigma][i]][1] * values[other]
            grown[sigma] = True
    return tuple(out), tuple(grown)


def prefix_tables(W, point, memo):
    """The table of every reduced word of W, each made by one bs_step from
    the table of its prefix; every step by s reads nu_s as alpha_s^v."""
    stack = [(W.identity, initial_table(memo), identity_support(W))]
    while stack:
        w, values, support = stack.pop()
        yield values
        for s in range(1, W.rank + 1):
            if W.length(W.rmult(w, s)) > W.length(w):
                g = W.root_index[W.identity][s - 1]
                stack.append((W.rmult(w, s), *bs_step(memo, values, support, s, g)))


STEP_CASES = [
    ("B3", QContext(COMPLEX, order=8, q=0.3), 209),
    ("D4", QContext(COMPLEX, order=8, q=0.3), 9719),
    ("B2", QContext(EXACT, order=4), 9),
    ("G2", QContext(EXACT, order=3), 13),
]


@pytest.mark.parametrize("label,ctx,words", STEP_CASES,
                         ids=[f"{c[0]}-{c[1].backend}" for c in STEP_CASES])
def test_support_only_step_equals_the_dense_loop(label, ctx, words, monkeypatch):
    """Every step of every reduced word, and of seeded words with repeated
    letters, gives the values (==, entry for entry) and the support of the
    loop over every sigma."""
    W = group(label)
    point = sample_point(W.rank, ctx, Random(f"support-steps:{label}"))
    memo = StepMemo(W, point)
    support_only, steps = classes._step_values, []

    def both(W, values, support, s, coeffs, ctx):
        out = support_only(W, values, support, s, coeffs, ctx)
        assert out == dense_step_values(W, values, support, s, coeffs, ctx.zero())
        steps.append(s)
        return out

    monkeypatch.setattr(classes, "_step_values", both)
    assert sum(1 for _ in prefix_tables(W, point, memo)) == words  # () among them
    assert len(steps) == words - 1
    rng = Random(f"repeated-letters:{label}")
    for _ in range(8):
        word = [rng.randint(1, W.rank) for _ in range(rng.randint(2, 9))]
        word.append(word[-1])  # a letter repeated at once: the word is not reduced
        before = len(steps)
        omega = W.from_word(word)
        bs_table(memo, word)
        unnormalized_table(memo, omega)
        assert len(steps) == before + len(word) + W.length(omega)


def test_singular_point_raises_as_reference():
    # zeta1 zeta2 = 1: the root alpha1 + alpha2 of B2 is a pole of its deltas
    ctx = QContext(EXACT, order=3)
    values = (Fraction(2), Fraction(1, 2), Fraction(3), Fraction(-5, 7), Fraction(7, 3))
    point = EvalPoint(ctx, values)
    W = group("B2")
    word = (1, 2, 1)
    assert W.reduced_word(W.from_word(word)) == word
    for fn, reference, arg in ((bs_table, reference_bs_table, word),
                               (unnormalized_table, reference_unnormalized_table,
                                W.from_word(word))):
        with pytest.raises(SingularPointError) as err:
            fn(StepMemo(W, point), arg)
        with pytest.raises(SingularPointError) as expected:
            reference(W, word, point)
        assert str(err.value) == str(expected.value) == "delta argument is 1 (pole)"


def test_a_zero_constant_term_in_a_step_denominator_is_redrawn():
    # nu_1 h = 1: delta(nu_1, h) has zero constant term, so the division in
    # bs_row raises the ring's SingularPointError, and resample draws anew
    ctx = QContext(EXACT, order=3)
    W = group("A1")
    singular = EvalPoint(ctx, (Fraction(2), Fraction(3), Fraction(1, 3)))
    with pytest.raises(SingularPointError) as err:
        classes.bs_row(StepMemo(W, singular), 1, W.root_index[W.identity][0])
    assert str(err.value) == "division by q-series with zero constant term"
    points = []

    def compute(rng):
        points.append(sample_point(W.rank, ctx, rng) if points else singular)
        return bs_table(StepMemo(W, points[-1]), (1,))

    table = resample(0, "zero-denominator", compute)
    assert len(points) == 2
    assert table == bs_table(StepMemo(W, points[1]), (1,))


# --- root and coroot values read by index against the coordinate path -------


def reference_initial_product(W, point, u):
    """The initial product: delta(h^(-u(gamma)), h) over the positive
    coroots gamma, u(gamma) by u's coroot matrix."""
    return reference_h_product(point, _nu(point, (
        _neg(_matvec(coroot_matrices(W)[u], gamma)) for gamma in W.rs.positive_coroots)))


def reference_normalization_factor(W, omega, point):
    """c(G, omega): delta(h^(-gamma), h) over F(G, omega), the positive
    coroots gamma with omega(gamma) positive, in coordinate order."""
    kept = sorted(gamma for gamma in W.rs.positive_coroots
                  if all(c >= 0 for c in _matvec(coroot_matrices(W)[omega], gamma)))
    return reference_h_product(point, _nu(point, map(_neg, kept)))


def reference_c_right_sides(W, omega, s, point):
    """c_recursion_right_sides with the shifted factor c(G, omega) at the
    point nu-transformed by s."""
    ctx, h = point.ctx, point.h
    lhs = reference_normalization_factor(W, W.rmult(omega, s), point)
    shifted = reference_normalization_factor(W, omega, transform_point(point, s, NU, W.rs))
    nu_val, nu_inv = _nu(point, (_basis(W.rank, s), _neg(_basis(W.rank, s))))
    if W.length(W.rmult(omega, s)) > W.length(omega):
        return lhs, shifted / reference_delta(nu_val, h, ctx)
    return lhs, reference_delta(nu_inv, h, ctx) * shifted


def reference_c_left_sides(W, omega, s, point):
    """c_recursion_left_sides with gamma = omega^-1(alpha_s^v) by its matrix."""
    ctx, h = point.ctx, point.h
    lhs = reference_normalization_factor(W, W.lmult(s, omega), point)
    base = reference_normalization_factor(W, omega, point)
    gamma = _matvec(coroot_matrices(W)[W.inv(omega)], _basis(W.rank, s))
    gamma_val, gamma_inv = _nu(point, (gamma, _neg(gamma)))
    if W.length(W.lmult(s, omega)) > W.length(omega):
        return lhs, base / reference_delta(gamma_inv, h, ctx)
    return lhs, reference_delta(gamma_val, h, ctx) * base


def reference_diagonal_closed_form(W, sigma, point):
    """delta(e^(beta), h) over T(G, sigma), the positive roots beta with
    sigma^-1(beta) negative, in coordinate order."""
    inverted = sorted(beta for beta in W.rs.positive_roots
                      if all(c <= 0 for c in _matvec(matrices(W)[W.inv(sigma)], beta)))
    return reference_h_product(point, _zeta(point, map(_neg, inverted)))


@pytest.mark.parametrize("label", ["B3", "G2"])
def test_index_reads_equal_the_coordinate_path(label):
    """Float for float on the complex backend, for every omega (and u)."""
    W = group(label)
    point = sample_point(W.rank, QContext(COMPLEX, order=8, q=0.3),
                         Random(f"coordinates:{label}"))
    memo = StepMemo(W, point)
    full = reference_initial_product(W, point, W.identity)
    for w in range(W.order):
        assert (initial_table(memo, w)[W.identity]
                == reference_initial_product(W, point, w))
        assert normalization_factor(memo, w) == reference_normalization_factor(W, w, point)
        assert (diagonal_closed_form(StepMemo(W, point), w)
                == reference_diagonal_closed_form(W, w, point))
        word = W.reduced_word(w)
        assert em_table(StepMemo(W, point), word) == tuple(
            v / full for v in bs_table(StepMemo(W, point), word))
        for s in range(1, W.rank + 1):
            assert (c_recursion_left_sides(memo, w, s)
                    == reference_c_left_sides(W, w, s, point))


@pytest.mark.parametrize("label", ["B3", "G2"])
def test_shifted_factor_equals_the_transformed_point(label):
    """At exact points, c_recursion_right_sides reads the coroots s(-gamma) at
    the point where the coordinate path transformed the point by s."""
    W = group(label)
    point = sample_point(W.rank, QContext(EXACT, order=2), Random(f"shifted:{label}"))
    memo = StepMemo(W, point)
    for omega in range(W.order):
        for s in range(1, W.rank + 1):
            assert (c_recursion_right_sides(memo, omega, s)
                    == reference_c_right_sides(W, omega, s, point))


# --- support-sparse steps and the per-point step memo ------------------------

SUPPORT_CASES = [(label, ctx) for label in ("A1", "A2", "A3", "B2", "B3", "C3", "G2")
                 for ctx in (QContext(EXACT, order=2), QContext(COMPLEX, order=8, q=0.3))]


@pytest.mark.parametrize("label,ctx", SUPPORT_CASES,
                         ids=[f"{c[0]}-{c[1].backend}" for c in SUPPORT_CASES])
def test_tables_vanish_outside_the_bruhat_interval(label, ctx):
    """On a reduced word of omega the nonzero entries are exactly the lower
    Bruhat interval of omega, and so is the support that the steps return,
    with one memo per point as a campaign shares it."""
    W = group(label)
    point = sample_point(W.rank, ctx, Random(f"support:{label}"))
    memo = StepMemo(W, point)
    zero = ctx.zero()
    for omega in range(W.order):
        word = W.reduced_word(omega)
        below = [bruhat_leq(W, sigma, omega) for sigma in range(W.order)]
        for values in (bs_table(memo, word), unnormalized_table(memo, omega)):
            assert [value != zero for value in values] == below
        u, gammas = W.step_coroots(word)
        values, support = initial_table(memo, u), identity_support(W)
        for s, g in zip(word, gammas):
            values, support = bs_step(memo, values, support, s, g)
        assert list(support) == below
        assert values == bs_table(memo, word)


def test_shared_memo_gives_the_tables_of_fresh_ones():
    ctx = QContext(EXACT, order=3)
    W = group("B2")
    point = sample_point(W.rank, ctx, Random("shared-memo"))
    memo = StepMemo(W, point)
    for word in [W.reduced_word(w) for w in range(W.order)] + [(1, 1), (2, 1, 1, 2)]:
        assert bs_table(memo, word) == bs_table(StepMemo(W, point), word)
    for omega in range(W.order):
        assert (unnormalized_table(memo, omega)
                == unnormalized_table(StepMemo(W, point), omega))
    # the rows are kept by coroot index, one row per coroot a step read
    for kept in (memo.normalized, memo.unnormalized):
        assert any(kept) and len(kept) == len(W.coroots)


def test_memo_shares_deltas_only_within_a_context():
    W = group("A2")
    point = sample_point(W.rank, QContext(EXACT, order=2), Random("memo-share"))
    memo = StepMemo(W, point)
    assert StepMemo(W, transform_point(point, 1, NU, W.rs), memo).deltas is memo.deltas
    # the keys leave the context out, so another q-order must not read them
    other = EvalPoint(QContext(EXACT, order=3), point.values)
    with pytest.raises(ValueError):
        StepMemo(W, other, memo)


def test_singular_root_of_skipped_entries_still_raises():
    # zeta1 zeta2 = 1: the root alpha1 + alpha2 = s2(alpha1) is a pole, and
    # only sigma = s2 and s2 s1, both outside the support of the step, use it
    ctx = QContext(EXACT, order=3)
    values = (Fraction(2), Fraction(1, 2), Fraction(3), Fraction(-5, 7), Fraction(7, 3))
    point = EvalPoint(ctx, values)
    W = group("A2")
    support = [v != ctx.zero() for v in initial_table(StepMemo(W, point))]
    for sigma in (W.from_word((2,)), W.from_word((2, 1))):
        assert not support[sigma]
        assert not support[W.rmult(sigma, 1)]
    for fn in (lambda: bs_table(StepMemo(W, point), (1,)),
               lambda: unnormalized_table(StepMemo(W, point), W.from_word((1,))),
               lambda: rmatrix_table(StepMemo(W, point), (1,)),
               lambda: rmatrix_table(StepMemo(W, point), (2,)),
               lambda: reference_bs_table(W, (1,), point)):
        with pytest.raises(SingularPointError) as err:
            fn()
        assert str(err.value) == "delta argument is 1 (pole)"


def test_exact_step_makes_one_reduction_per_new_entry(monkeypatch):
    # the coset kernels sum each new entry's products over one denominator
    # and reduce it once; the coefficient rows are filled before the step
    # loop, so what the loop reduces is its entries and the zero it fills in,
    # besides the deferred coefficients (QSeries.__getattr__) it first reads
    W = group("B2")
    point = sample_point(W.rank, QContext(EXACT, order=4), Random("one-reduction"))
    memo = StepMemo(W, point)
    made, steps = [], []
    new, step_values = QSeries._new.__func__, classes._step_values

    def counting_new(cls, num, den):
        if sys._getframe(1).f_code is not QSeries.__getattr__.__code__:
            made.append(den)
        return new(cls, num, den)

    def counted_step(W, values, support, s, coeffs, ctx):
        made.clear()
        out, grown = step_values(W, values, support, s, coeffs, ctx)
        pairs = sum(1 for sigma in range(W.order)
                    if support[sigma] and support[W.rmult(sigma, s)])
        steps.append((len(made), sum(grown) + 1, pairs))
        return out, grown

    monkeypatch.setattr(QSeries, "_new", classmethod(counting_new))
    monkeypatch.setattr(classes, "_step_values", counted_step)
    for omega in range(W.order):
        bs_table(memo, W.reduced_word(omega))
        unnormalized_table(memo, omega)
    assert len(steps) == 2 * sum(map(W.length, range(W.order)))
    assert all(reductions == entries for reductions, entries, _ in steps)
    assert any(pairs for _, _, pairs in steps)  # two-term entries among them


def _power_row_memos(monkeypatch, label, order, tag):
    """(memos, rows made, delta calls) for the duality tables of one exact
    point of label at order: the StepMemos made, the (num, den) argument of
    each _power_rows call, and the (a, b) of each elliptic.delta call."""
    from ellschub import elliptic
    from ellschub.duality import duality_pairs
    from ellschub.weyl import dual_group

    memos, rows, calls = [], [], []
    init, power_rows, traced_delta = StepMemo.__init__, elliptic._power_rows, classes.delta

    def recording_init(self, *args):
        init(self, *args)
        memos.append(self)

    def counting_rows(u, v, n):
        rows.append((u, v))
        return power_rows(u, v, n)

    def counting_delta(a, b, ctx, **kwargs):
        calls.append((a, b))
        return traced_delta(a, b, ctx, **kwargs)

    monkeypatch.setattr(StepMemo, "__init__", recording_init)
    monkeypatch.setattr(elliptic, "_power_rows", counting_rows)
    monkeypatch.setattr(classes, "delta", counting_delta)
    W = group(label)
    point = sample_point(W.rank, QContext(EXACT, order=order), Random(tag))
    duality_pairs(W, dual_group(W), point)
    for memo in memos:  # a delta makes its power rows on its first read
        for value in memo.deltas.values():
            value.num
    monkeypatch.undo()
    return memos, rows, calls


def test_power_rows_are_made_once_per_argument_per_memo(monkeypatch):
    # the memo keeps the exact delta's power rows by argument: 50 rows for
    # the 26 distinct arguments of the two sides' memos, where 2 per delta
    # made 384; every delta is still computed once per memo, 192 in all
    memos, rows, calls = _power_row_memos(monkeypatch, "A3", 3, "power-rows")
    assert len(memos) == 2 and memos[0].powers is not memos[1].powers
    assert sorted(rows) == sorted(key for memo in memos for key in memo.powers)
    assert (len(rows), len(set(rows))) == (50, 26)
    assert len(calls) == sum(len(memo.deltas) for memo in memos) == 192
    ctx = memos[0].point.ctx
    # a delta is kept under the integers (u, v, s, t) of a = u/v, b = s/t
    assert {key for memo in memos for key in memo.deltas} == {
        (a.numerator, a.denominator, b.numerator, b.denominator) for a, b in calls}
    for memo in memos:
        for (u, v, s, t), value in memo.deltas.items():
            assert value == delta(Fraction(u, v), Fraction(s, t), ctx)
        for (u, v), kept in memo.powers.items():
            assert kept == _power_rows(u, v, ctx.order)


def test_an_exact_duality_point_hashes_no_fraction(monkeypatch):
    # Fraction.__hash__ takes a modular inverse; the memo keys its deltas by
    # the integers of their arguments instead
    from ellschub import campaigns

    hashed = []
    fraction_hash = Fraction.__hash__

    def counting(self):
        hashed.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    assert hash(Fraction(1, 3)) and len(hashed) == 1
    hashed.clear()
    rows = list(campaigns.run_duality("A3", QContext(EXACT, order=3), 1, 0, 1e-9))
    assert hashed == []
    assert sum(len(lines) for lines, _ in rows) == 576


def test_a_deltas_of_memo_shares_the_power_rows():
    from ellschub.duality import relabel_point

    W = group("A2")
    point = sample_point(W.rank, QContext(EXACT, order=3), Random("shared-rows"))
    memo = StepMemo(W, point)
    twin = StepMemo(W, relabel_point(W, point), memo)
    assert twin.powers is memo.powers and twin.deltas is memo.deltas
    bs_table(twin, W.reduced_word(W.longest))
    assert memo.powers and len(memo.powers) < 2 * len(memo.deltas)
    assert StepMemo(W, point).powers == {}
