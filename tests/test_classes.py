from fractions import Fraction
from random import Random

import pytest

from ellschub.classes import (
    ClassTable,
    StepMemo,
    _checked_div,
    _coroot_product,
    _delta_at,
    _delta_h,
    _point_chain,
    bs_step,
    bs_table,
    c_recursion_left_residual,
    c_recursion_right_residual,
    diagonal_closed_form,
    em_table,
    initial_table,
    normalization_factor,
    normalization_index_set,
    rmatrix_eval,
    rmatrix_table,
    tangent_weights,
    unnormalized_table,
)
from ellschub.corpus import builtin_chart
from ellschub.elliptic import (
    COMPLEX,
    EXACT,
    NU,
    EvalPoint,
    QContext,
    SingularPointError,
    delta,
    nu_monomial,
    sample_point,
    transform_point,
    twist_point,
    zeta_monomial,
)
from ellschub.rootsys import _basis
from ellschub.weyl import _matvec, group


def is_zero(v):
    return all(c == 0 for c in v.coeffs)


def chart_point(label, ctx, seed):
    chart = builtin_chart(label)
    return chart.sample(ctx, Random(seed))


# --- initial table ----------------------------------------------------------


def test_initial_table_sl2(exact_ctx):
    # EE_id(X_id) = delta(mu1/mu2, h); EE_tau(X_id) = 0
    W = group("A1")
    cv, point = chart_point("A1", exact_ctx, "sl2-init")
    table = initial_table(W, point)
    expected = delta(cv["mu1"] / cv["mu2"], cv["h"], exact_ctx)
    assert table.values[W.identity] == expected
    assert is_zero(table.values[W.from_word((1,))])


def test_initial_table_so5(exact_ctx):
    # the four-factor product (mu1^2|h)(mu1/mu2|h)(mu1 mu2|h)(mu2^2|h)
    W = group("B2")
    cv, point = chart_point("B2", exact_ctx, "so5-init")
    table = initial_table(W, point)
    h = cv["h"]
    mu1, mu2 = cv["mu1"], cv["mu2"]
    expected = (
        delta(mu1**2, h, exact_ctx)
        * delta(mu1 / mu2, h, exact_ctx)
        * delta(mu1 * mu2, h, exact_ctx)
        * delta(mu2**2, h, exact_ctx)
    )
    assert table.values[W.identity] == expected
    for sigma in range(W.order):
        if sigma != W.identity:
            assert is_zero(table.values[sigma])


# --- Bott-Samelson steps ----------------------------------------------------


def test_bs_step_sl2_word_matches_example(exact_ctx):
    # EE_id(X_tau) = delta(z2/z1, mu2/mu1); EE_tau(X_tau) = delta(z1/z2, h)
    W = group("A1")
    cv, point = chart_point("A1", exact_ctx, "sl2-word")
    inner = transform_point(point, 1, NU, W.rs)
    table = bs_step(W, initial_table(W, inner), 1, point)
    tau = W.from_word((1,))
    assert table.values[W.identity] == delta(
        cv["z2"] / cv["z1"], cv["mu2"] / cv["mu1"], exact_ctx
    )
    assert table.values[tau] == delta(cv["z1"] / cv["z2"], cv["h"], exact_ctx)


def test_bs_step_requires_transformed_input(exact_ctx):
    # the chain bookkeeping is what bs_table provides
    W = group("A1")
    _, point = chart_point("A1", exact_ctx, "sl2-chain")
    assert bs_table(W, (1,), point).values == bs_step(
        W, initial_table(W, transform_point(point, 1, NU, W.rs)), 1, point
    ).values


def test_bs_round_trip_single_letter(exact_ctx):
    for label in ("A1", "B2"):
        W = group(label)
        point = sample_point(W.rank, exact_ctx, Random(f"round-{label}"))
        base = initial_table(W, point)
        for s in range(1, W.rank + 1):
            again = bs_table(W, (s, s), point)
            assert again.values == base.values


def test_bs_so5_diagonal_entry(exact_ctx):
    W = group("B2")
    cv, point = chart_point("B2", exact_ctx, "so5-diag")
    h = cv["h"]
    table = bs_table(W, (1,), point)
    s1 = W.from_word((1,))
    expected = (
        delta(cv["mu1"] ** 2, h, exact_ctx)
        * delta(cv["mu1"] * cv["mu2"], h, exact_ctx)
        * delta(cv["mu2"] ** 2, h, exact_ctx)
        * delta(cv["z1"] / cv["z2"], h, exact_ctx)
    )
    assert table.values[s1] == expected


def test_bs_word_independence_b2(exact_ctx):
    W = group("B2")
    point = sample_point(2, exact_ctx, Random("b2-words"))
    assert bs_table(W, (1, 2, 1, 2), point).values == bs_table(
        W, (2, 1, 2, 1), point
    ).values


def test_bs_vanishing_matches_bruhat_a2(exact_ctx):
    W = group("A2")
    point = sample_point(2, exact_ctx, Random("a2-vanish"))
    omega = W.from_word((1, 2))
    table = bs_table(W, (1, 2), point)
    for sigma in range(W.order):
        assert is_zero(table.values[sigma]) == (not W.bruhat_leq(sigma, omega))
    # the incomparable set here has exactly two elements: s2 s1 and tau0
    zeros = [sigma for sigma in range(W.order) if is_zero(table.values[sigma])]
    assert sorted(zeros) == sorted([W.from_word((2, 1)), W.longest])


def test_table_word_and_omega(exact_ctx):
    W = group("B2")
    point = sample_point(2, exact_ctx, Random("b2-meta"))
    table = bs_table(W, (1, 1, 2), point)
    assert table.word == (1, 1, 2)
    assert table.omega == W.from_word((2,))
    assert table.values == bs_table(W, (2,), point).values


# --- R-matrix ----------------------------------------------------------------


def test_rmatrix_empty_word_is_initial(exact_ctx):
    W = group("B2")
    point = sample_point(2, exact_ctx, Random("rm-init"))
    assert rmatrix_table(W, (), point).values == initial_table(W, point).values


def test_rmatrix_sl2_example(exact_ctx):
    W = group("A1")
    cv, point = chart_point("A1", exact_ctx, "rm-sl2")
    table = rmatrix_table(W, (1,), point)
    assert table.values[W.identity] == delta(
        cv["z2"] / cv["z1"], cv["mu2"] / cv["mu1"], exact_ctx
    )
    assert table.values[W.from_word((1,))] == delta(
        cv["z1"] / cv["z2"], cv["h"], exact_ctx
    )


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_rmatrix_agrees_with_bs(label, exact_ctx):
    W = group(label)
    for k in range(5):
        point = sample_point(W.rank, exact_ctx, Random(f"rm-{label}-{k}"))
        for omega in range(W.order):
            word = W.reduced_word(omega)
            assert rmatrix_table(W, word, point).values == bs_table(W, word, point).values


def test_rmatrix_single_entry(exact_ctx):
    W = group("A2")
    point = sample_point(2, exact_ctx, Random("rm-entry"))
    word = (1, 2)
    table = bs_table(W, word, point)
    for sigma in range(W.order):
        assert rmatrix_eval(W, word, sigma, point) == table.values[sigma]


def test_rmatrix_nonreduced_word(exact_ctx):
    W = group("B2")
    point = sample_point(2, exact_ctx, Random("rm-nonred"))
    assert rmatrix_table(W, (1, 1), point).values == initial_table(W, point).values


# --- normalization -----------------------------------------------------------


def test_c_at_longest_is_one(exact_ctx):
    for label in ("A1", "A2", "B2"):
        W = group(label)
        point = sample_point(W.rank, exact_ctx, Random(f"c1-{label}"))
        assert normalization_factor(W, W.longest, point) == exact_ctx.one()


def test_c_at_identity_sl2(exact_ctx):
    W = group("A1")
    cv, point = chart_point("A1", exact_ctx, "c-sl2")
    assert normalization_factor(W, W.identity, point) == delta(
        cv["mu1"] / cv["mu2"], cv["h"], exact_ctx
    )


def test_c_recursions_b2(exact_ctx):
    W = group("B2")
    point = sample_point(2, exact_ctx, Random("c-rec"))
    for omega in range(W.order):
        for s in (1, 2):
            assert is_zero(c_recursion_right_residual(W, omega, s, point))
            assert is_zero(c_recursion_left_residual(W, omega, s, point))


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
    from ellschub.rootsys import langlands_dual
    from ellschub.weyl import enumerate_group
    from ellschub.duality import dual_element_map

    W = group("B2")
    Wd = enumerate_group(langlands_dual(W.rs))
    dmap = dual_element_map(W, Wd)
    allv = frozenset(W.rs.positive_coroots)
    for omega in range(W.order):
        expected = allv - tangent_weights(Wd, Wd.inv(dmap[omega]))
        assert normalization_index_set(W, omega) == expected


@pytest.mark.parametrize("label", ["B2", "C2"])
def test_f_interpretation(label, exact_ctx):
    # c(G, omega) equals the inverted diagonal class of the dual group
    from ellschub.duality import dual_element_map, f_interpretation_point
    from ellschub.rootsys import langlands_dual
    from ellschub.weyl import enumerate_group

    W = group(label)
    Wd = enumerate_group(langlands_dual(W.rs))
    dmap = dual_element_map(W, Wd)
    t0 = W.longest
    point = sample_point(2, exact_ctx, Random(f"fint-{label}"))
    dual_point = f_interpretation_point(W, point)
    for omega in range(W.order):
        target = W.mul(W.inv(omega), t0)
        diag = unnormalized_table(Wd, W.reduced_word(target), dual_point).values[
            dmap[target]
        ]
        assert diag == normalization_factor(W, omega, point)


# --- unnormalized and Em -----------------------------------------------------


def test_unnormalized_identity_seed(exact_ctx):
    W = group("B2")
    point = sample_point(2, exact_ctx, Random("e-seed"))
    table = unnormalized_table(W, (), point)
    assert table.values[W.identity] == exact_ctx.one()
    assert all(is_zero(v) for i, v in enumerate(table.values) if i != W.identity)


@pytest.mark.parametrize("label", ["A1", "B2"])
def test_scaling_identity(label, exact_ctx):
    # EE = c(G, omega) . E for every omega, several points
    W = group(label)
    for k in range(3):
        point = sample_point(W.rank, exact_ctx, Random(f"scale-{label}-{k}"))
        for omega in range(W.order):
            word = W.reduced_word(omega)
            ee = bs_table(W, word, point).values
            e = unnormalized_table(W, word, point).values
            c = normalization_factor(W, omega, point)
            for sigma in range(W.order):
                assert ee[sigma] == c * e[sigma]


def test_diagonal_closed_form_b2(exact_ctx):
    W = group("B2")
    point = sample_point(2, exact_ctx, Random("diag"))
    for sigma in range(W.order):
        table = unnormalized_table(W, W.reduced_word(sigma), point)
        assert table.values[sigma] == diagonal_closed_form(W, sigma, point)


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_ee_longest_diagonal_product(label, exact_ctx):
    # EE_tau0(X_tau0) = prod over all reflections of delta(e^(alpha_s), h)
    from ellschub.elliptic import eval_monomial, zeta_monomial

    W = group(label)
    point = sample_point(W.rank, exact_ctx, Random(f"eetop-{label}"))
    t0 = W.longest
    table = bs_table(W, W.reduced_word(t0), point)
    acc = exact_ctx.one()
    for beta in W.rs.positive_roots:
        acc = acc * delta(
            eval_monomial(point, zeta_monomial(W.rank, beta).inverse()),
            point.h,
            exact_ctx,
        )
    assert table.values[t0] == acc


def test_em_table(exact_ctx):
    W = group("A2")
    point = sample_point(2, exact_ctx, Random("em"))
    assert em_table(W, (), point).values[W.identity] == exact_ctx.one()
    ee = bs_table(W, (1, 2), point).values
    em = em_table(W, (1, 2), point).values
    full = initial_table(W, point).values[W.identity]
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
    cv, point = chart_point("A1", exact_ctx, "em-sl2")
    em = em_table(W, (1,), point)
    expected = delta(cv["z2"] / cv["z1"], cv["mu2"] / cv["mu1"], exact_ctx) / delta(
        cv["mu1"] / cv["mu2"], cv["h"], exact_ctx
    )
    assert em.values[W.identity] == expected


# --- complex backend ---------------------------------------------------------


def test_complex_zero_detection():
    ctx = QContext(COMPLEX, order=8, q=0.3)
    W = group("B2")
    point = sample_point(2, ctx, Random("cplx-zero"))
    omega = W.from_word((1, 2))
    table = bs_table(W, (1, 2), point)
    flags = table.zero_flags()
    for sigma in range(W.order):
        assert flags[sigma] == (not W.bruhat_leq(sigma, omega))


def test_complex_agrees_with_exact_structure():
    ctx = QContext(COMPLEX, order=8, q=0.25)
    W = group("A2")
    point = sample_point(2, ctx, Random("cplx-rm"))
    for omega in range(W.order):
        word = W.reduced_word(omega)
        bs = bs_table(W, word, point).values
        rm = rmatrix_table(W, word, point).values
        for sigma in range(W.order):
            scale = max(abs(bs[sigma]), abs(rm[sigma]))
            assert abs(bs[sigma] - rm[sigma]) <= 1e-9 * max(scale, 1e-30)


def test_complex_word_independence():
    ctx = QContext(COMPLEX, order=8, q=0.3)
    W = group("B2")
    point = sample_point(2, ctx, Random("cplx-words"))
    a = bs_table(W, (1, 2, 1, 2), point).values
    b = bs_table(W, (2, 1, 2, 1), point).values
    for sigma in range(W.order):
        scale = max(abs(a[sigma]), abs(b[sigma]))
        assert abs(a[sigma] - b[sigma]) <= 1e-9 * max(scale, 1e-30)


# --- the per-root recursion steps against the per-sigma originals -----------


def _column(matrix, s):
    return tuple(row[s - 1] for row in matrix)


def reference_bs_step(W, table, s, outer_point):
    """bs_step as a loop over sigma, both coefficients recomputed per sigma."""
    rank = W.rank
    nu_s = nu_monomial(rank, _basis(rank, s))
    den = _delta_h(outer_point, nu_s)
    values = []
    for sigma in range(W.order):
        sigma_zeta = zeta_monomial(rank, _column(W.matrices[sigma], s))
        c_keep = _checked_div(_delta_at(outer_point, sigma_zeta, nu_s), den)
        c_mix = _checked_div(_delta_h(outer_point, sigma_zeta), den)
        values.append(
            c_keep * table.values[sigma] + c_mix * table.values[W.rmult(sigma, s)]
        )
    return ClassTable(W, table.word + (s,), outer_point, tuple(values), table.kind)


def reference_bs_table(W, word, point):
    points = _point_chain(W, word, point)
    table = initial_table(W, points[0])
    for j, s in enumerate(word):
        table = reference_bs_step(W, table, s, points[j + 1])
    return table


def reference_unnormalized_table(W, word, point):
    """unnormalized_table as a loop over sigma."""
    rank = W.rank
    points = _point_chain(W, word, point)
    values = [point.ctx.zero()] * W.order
    values[W.identity] = point.ctx.one()
    omega = W.identity
    for j, s in enumerate(word):
        outer = points[j + 1]
        nu_s = nu_monomial(rank, _basis(rank, s))
        going_up = W.length(W.rmult(omega, s)) > W.length(omega)
        if not going_up:
            down = _delta_h(outer, nu_s) * _delta_h(outer, nu_s.inverse())
        new_values = []
        for sigma in range(W.order):
            sigma_zeta = zeta_monomial(rank, _column(W.matrices[sigma], s))
            lhs = (
                _delta_at(outer, sigma_zeta, nu_s) * values[sigma]
                + _delta_h(outer, sigma_zeta) * values[W.rmult(sigma, s)]
            )
            new_values.append(lhs if going_up else _checked_div(lhs, down))
        values = new_values
        omega = W.rmult(omega, s)
    return tuple(values)


def reference_rmatrix_values(W, word, point):
    """R-matrix table with both coefficients recomputed at every memo miss."""
    memo, twists = {}, {}

    def ev(word, sigma, twist):
        key = (len(word), sigma, twist)
        if key in memo:
            return memo[key]
        if twist not in twists:
            twists[twist] = twist_point(point, W.matrices[twist], W.rs)
        p = twists[twist]
        if not word:
            out = (_coroot_product(p, W.rs.positive_coroots) if sigma == W.identity
                   else point.ctx.zero())
        else:
            s, rest = word[0], word[1:]
            rank = W.rank
            gamma = _matvec(W.coroot_matrices[W.inv(W.from_word(rest))], _basis(rank, s))
            den = _delta_h(p, nu_monomial(rank, gamma).inverse())
            zeta_s = zeta_monomial(rank, _basis(rank, s))
            c_keep = _checked_div(_delta_at(p, zeta_s, nu_monomial(rank, gamma)), den)
            c_mix = _checked_div(_delta_h(p, zeta_s.inverse()), den)
            out = (c_keep * ev(rest, sigma, twist)
                   + c_mix * ev(rest, W.lmult(s, sigma), W.rmult(twist, s)))
        memo[key] = out
        return out

    return tuple(ev(tuple(word), sigma, W.identity) for sigma in range(W.order))


REFERENCE_CASES = [
    ("B2", QContext(EXACT, order=4)),
    ("G2", QContext(EXACT, order=3)),
    ("B3", QContext(COMPLEX, order=8, q=0.3)),
]


@pytest.mark.parametrize("label,ctx", REFERENCE_CASES,
                         ids=[f"{c[0]}-{c[1].backend}" for c in REFERENCE_CASES])
def test_recursions_equal_per_sigma_reference(label, ctx):
    """Identical values, float for float on the complex backend."""
    W = group(label)
    point = sample_point(W.rank, ctx, Random(f"reference:{label}"))
    for w in range(W.order):
        word = W.reduced_word(w)
        assert bs_table(W, word, point).values == reference_bs_table(W, word, point).values
        assert (unnormalized_table(W, word, point).values
                == reference_unnormalized_table(W, word, point))
        assert rmatrix_table(W, word, point).values == reference_rmatrix_values(W, word, point)
    # words that are not reduced take length-decreasing steps
    for word in ((1, 1), (1, 2, 2, 1), (2, 1, 2, 2, 1)):
        assert bs_table(W, word, point).values == reference_bs_table(W, word, point).values
        assert (unnormalized_table(W, word, point).values
                == reference_unnormalized_table(W, word, point))


def test_singular_point_raises_as_reference():
    # zeta1 zeta2 = 1: the root alpha1 + alpha2 of B2 is a pole of its deltas
    ctx = QContext(EXACT, order=3)
    values = (Fraction(2), Fraction(1, 2), Fraction(3), Fraction(-5, 7), Fraction(7, 3))
    point = EvalPoint(ctx, values)
    W = group("B2")
    for fn, reference in ((bs_table, reference_bs_table),
                          (unnormalized_table, reference_unnormalized_table)):
        with pytest.raises(SingularPointError) as err:
            fn(W, (1, 2, 1), point)
        with pytest.raises(SingularPointError) as expected:
            reference(W, (1, 2, 1), point)
        assert str(err.value) == str(expected.value) == "delta argument is 1 (pole)"


# --- support-sparse steps and the per-point step memo ------------------------

SUPPORT_CASES = [(label, ctx) for label in ("A1", "A2", "A3", "B2", "B3", "C3", "G2")
                 for ctx in (QContext(EXACT, order=2), QContext(COMPLEX, order=8, q=0.3))]


@pytest.mark.parametrize("label,ctx", SUPPORT_CASES,
                         ids=[f"{c[0]}-{c[1].backend}" for c in SUPPORT_CASES])
def test_tables_vanish_outside_the_bruhat_interval(label, ctx):
    """On a reduced word of omega the support is the lower Bruhat interval of
    omega, and no entry outside it is nonzero, with one memo per point as a
    campaign shares it."""
    W = group(label)
    point = sample_point(W.rank, ctx, Random(f"support:{label}"))
    memo = StepMemo(W, point)
    zero = ctx.zero()
    for omega in range(W.order):
        word = W.reduced_word(omega)
        below = [W.bruhat_leq(sigma, omega) for sigma in range(W.order)]
        for table in (bs_table(W, word, point, memo),
                      unnormalized_table(W, word, point, memo)):
            assert list(table.support) == below
            for sigma, value in enumerate(table.values):
                if value != zero:
                    assert below[sigma]


def test_shared_memo_gives_the_tables_of_fresh_ones():
    ctx = QContext(EXACT, order=3)
    W = group("B2")
    point = sample_point(W.rank, ctx, Random("shared-memo"))
    memo = StepMemo(W, point)
    for word in [W.reduced_word(w) for w in range(W.order)] + [(1, 1), (2, 1, 1, 2)]:
        assert bs_table(W, word, point, memo).values == bs_table(W, word, point).values
        assert (unnormalized_table(W, word, point, memo).values
                == unnormalized_table(W, word, point).values)
    assert set(memo.normalized) and set(memo.unnormalized)


def test_memo_refuses_another_point():
    ctx = QContext(EXACT, order=2)
    W = group("A2")
    point = sample_point(W.rank, ctx, Random("memo-check"))
    memo = StepMemo(W, point)
    # a nu-transform keeps zeta and h, so it may share the memo
    bs_table(W, (1,), transform_point(point, 2, NU, W.rs), memo)
    other = EvalPoint(ctx, point.values[:-1] + (point.h * 2,))
    for fn in (bs_table, unnormalized_table):
        with pytest.raises(ValueError):
            fn(W, (1,), other, memo)
        with pytest.raises(ValueError):
            fn(group("B2"), (1,), point, memo)


def test_singular_root_of_skipped_entries_still_raises():
    # zeta1 zeta2 = 1: the root alpha1 + alpha2 = s2(alpha1) is a pole, and
    # only sigma = s2 and s2 s1, both outside the support of the step, use it
    ctx = QContext(EXACT, order=3)
    values = (Fraction(2), Fraction(1, 2), Fraction(3), Fraction(-5, 7), Fraction(7, 3))
    point = EvalPoint(ctx, values)
    W = group("A2")
    table = initial_table(W, point)
    for sigma in (W.from_word((2,)), W.from_word((2, 1))):
        assert not table.support[sigma]
        assert not table.support[W.rmult(sigma, 1)]
    for fn in (bs_table, unnormalized_table, reference_bs_table):
        with pytest.raises(SingularPointError) as err:
            fn(W, (1,), point)
        assert str(err.value) == "delta argument is 1 (pole)"
