import json
from itertools import product
from random import Random

import pytest

from ellschub.classes import StepMemo, bs_table
from ellschub.corpus import builtin_chart
from ellschub.duality import (
    double_dual_pairs,
    duality_pairs,
    duality_sign,
    pull_point,
    relabel_point,
    substitution,
)
from ellschub.elliptic import delta, eval_monomial, sample_point
from ellschub.weyl import dual_group, group
from test_campaigns import checks


def is_zero(v):
    return all(c == 0 for c in v.coeffs)


# --- the substitution as a map ------------------------------------------------


def test_substitution_monomial_images():
    W = group("A2")
    # rows[i] is the image of variable i; s* swaps 1 and 2 in A2
    assert substitution(W)[0] == (0, 0, 0, -1, 0)  # zeta1 -> nubar2^-1
    assert substitution(W)[2] == (-1, 0, 0, 0, 0)  # nu1 -> zetabar1^-1
    assert substitution(W)[4] == (0, 0, 0, 0, -1)  # h -> h^-1


def test_pull_point_sl2_chart_form(exact_ctx):
    # z1 := mu2, z2 := mu1, mu1 := z1^{-1}, mu2 := z2^{-1}, h := h^{-1}
    chart = builtin_chart("A1")
    W = group("A1")
    (z1, z2, mu1, mu2, h), point = chart.sample(exact_ctx, Random("pull-sl2"))
    pulled = pull_point(W, point)
    # zeta1 of the pulled point = (z2/z1) at z1 := mu2, z2 := mu1
    assert pulled.values[0] == mu1 / mu2
    # nu1 of the pulled point = (mu2/mu1) at mu_i := z_i^{-1}
    assert pulled.values[1] == z1 / z2
    assert pulled.values[2] == 1 / h


def test_pull_point_b2_direct(exact_ctx):
    # s* = s in B2, so zeta_s <- 1/nubar_s directly
    W = group("B2")
    point = sample_point(2, exact_ctx, Random("pull-b2"))
    pulled = pull_point(W, point)
    assert pulled.values[0] == 1 / point.values[2]
    assert pulled.values[1] == 1 / point.values[3]
    assert pulled.values[2] == 1 / point.values[0]
    assert pulled.values[3] == 1 / point.values[1]
    assert pulled.values[4] == 1 / point.values[4]


def test_pull_point_h_round_trip(exact_ctx):
    W = group("B2")
    Wd = dual_group(W)
    point = sample_point(2, exact_ctx, Random("pull-h"))
    twice = pull_point(Wd, pull_point(W, point))
    assert twice.values[-1] == point.values[-1]


def test_pull_point_naturality(exact_ctx, rng):
    # eval(pull_point(p), m) = eval(p, # image of m) for random monomials m,
    # the image being m times the substitution's rows (so the exponent row
    # m against the transposed rows)
    for label in ("A2", "B2"):
        W = group(label)
        point = sample_point(2, exact_ctx, Random(f"natural-{label}"))
        columns = tuple(zip(*substitution(W)))
        for _ in range(25):
            m = tuple(rng.randint(-3, 3) for _ in range(5))
            image = tuple(sum(e * x for e, x in zip(m, col)) for col in columns)
            assert eval_monomial(pull_point(W, point), m) == eval_monomial(point, image)


def test_double_substitution_is_relabeling(exact_ctx):
    # #_{G^v} o #_G acts on points as the s -> s* relabeling
    for label in ("A2", "B2"):
        W = group(label)
        Wd = dual_group(W)
        point = sample_point(W.rank, exact_ctx, Random(f"dd-{label}"))
        composed = pull_point(Wd, pull_point(W, point))
        assert composed.values == relabel_point(W, point).values
        # and squares to the identity
        twice = pull_point(Wd, pull_point(W, composed))
        assert twice.values == point.values


def test_relabel_trivial_in_b2(exact_ctx):
    W = group("B2")
    point = sample_point(2, exact_ctx, Random("relabel-b2"))
    assert relabel_point(W, point).values == point.values


# --- the duality theorem -------------------------------------------------------


def test_sl2_duality_identities(exact_ctx):
    # the three displayed identities plus the vanishing pair
    W = group("A1")
    Wd = dual_group(W)
    chart = builtin_chart("A1")
    (z1, z2, mu1, mu2, h), point = chart.sample(exact_ctx, Random("sl2-dual"))
    pulled = pull_point(W, point)
    tau = W.from_word((1,))

    # -EE_tau(X_tau)|_# = EE_id(X_id)
    lhs = -bs_table(StepMemo(W, pulled), (1,))[tau]
    assert lhs == delta(mu1 / mu2, h, exact_ctx)
    # -EE_id(X_tau)|_# = EE_id(X_tau)
    lhs = -bs_table(StepMemo(W, pulled), (1,))[W.identity]
    assert lhs == delta(z2 / z1, mu2 / mu1, exact_ctx)
    # -EE_id(X_id)|_# = EE_tau(X_tau)
    lhs = -bs_table(StepMemo(W, pulled), ())[W.identity]
    assert lhs == delta(z1 / z2, h, exact_ctx)
    # off-support pair: both sides vanish
    assert is_zero(bs_table(StepMemo(W, pulled), ())[tau])
    assert is_zero(bs_table(StepMemo(Wd, point), ())[tau])


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_duality_all_pairs(label, exact_ctx):
    W = group(label)
    Wd = dual_group(W)
    for k in range(5):
        point = sample_point(W.rank, exact_ctx, Random(f"dual-{label}-{k}"))
        lhs_rows, rhs_rows = map(list, duality_pairs(W, Wd, point))
        for omega, sigma in product(range(W.order), repeat=2):
            lhs, rhs = lhs_rows[omega][sigma], rhs_rows[omega][sigma]
            assert lhs == rhs, (omega, sigma)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_duality_complex_backend(label, complex_ctx):
    W = group(label)
    Wd = dual_group(W)
    for k in range(5):
        point = sample_point(W.rank, complex_ctx, Random(f"dualc-{label}-{k}"))
        lhs_rows, rhs_rows = map(list, duality_pairs(W, Wd, point))
        for omega, sigma in product(range(W.order), repeat=2):
            lhs, rhs = lhs_rows[omega][sigma], rhs_rows[omega][sigma]
            scale = max(abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= 1e-9 * max(scale, 1e-30), (omega, sigma)


def test_verify_duality_single_pair(exact_ctx):
    W = group("B2")
    Wd = dual_group(W)
    point = sample_point(2, exact_ctx, Random("single"))
    omega = W.from_word((1, 2))
    sigma = W.from_word((1,))
    lhs_rows, rhs_rows = map(list, duality_pairs(W, Wd, point))
    lhs, rhs = lhs_rows[omega][sigma], rhs_rows[omega][sigma]
    assert is_zero(lhs - rhs)


def test_duality_sign_is_load_bearing(exact_ctx):
    for label in ("A1", "A2", "B2"):
        W = group(label)
        Wd = dual_group(W)
        point = sample_point(W.rank, exact_ctx, Random(f"sign-{label}"))
        lhs_rows, rhs_rows = map(list, duality_pairs(W, Wd, point, flip_sign=True))
        bad = [(omega, sigma) for omega, sigma in product(range(W.order), repeat=2)
               if lhs_rows[omega][sigma] != rhs_rows[omega][sigma]]
        assert bad, "flipping the sign must break at least one pair"


def test_duality_sign_values():
    assert duality_sign(group("A1")) == -1  # l(tau0) = 1
    assert duality_sign(group("B2")) == 1   # l(tau0) = 4
    assert duality_sign(group("A2")) == -1  # l(tau0) = 3


# --- the double-dual constraint -------------------------------------------------


def test_double_dual_a2(exact_ctx):
    W = group("A2")
    point = sample_point(2, exact_ctx, Random("dd-a2"))
    lhs_rows, rhs_rows = map(list, double_dual_pairs(W, point))
    assert sum(map(len, lhs_rows)) == sum(map(len, rhs_rows)) == 36
    for omega, sigma in product(range(W.order), repeat=2):
        lhs, rhs = lhs_rows[omega][sigma], rhs_rows[omega][sigma]
        assert lhs == rhs, (omega, sigma)


def test_double_dual_b2_trivial(exact_ctx):
    # tau0 is central in B2: the relabeling is the identity and the
    # constraint is 0 = 0 on the nose
    W = group("B2")
    point = sample_point(2, exact_ctx, Random("dd-b2"))
    lhs_rows, rhs_rows = map(list, double_dual_pairs(W, point))
    for omega, sigma in product(range(W.order), repeat=2):
        lhs, rhs = lhs_rows[omega][sigma], rhs_rows[omega][sigma]
        assert lhs == rhs


def test_double_dual_identity_entry(exact_ctx):
    # (omega, sigma) = (id, id): invariance of the full product under the
    # index relabeling
    W = group("A2")
    point = sample_point(2, exact_ctx, Random("dd-id"))
    lhs_rows, rhs_rows = map(list, double_dual_pairs(W, point))
    lhs, rhs = lhs_rows[W.identity][W.identity], rhs_rows[W.identity][W.identity]
    assert lhs == rhs


def test_campaigns_enumerate_no_dual(monkeypatch):
    # the dual group is derived from W's tables, so once W is built no
    # campaign enumerates a group
    from ellschub import campaigns, weyl
    from ellschub.elliptic import EXACT, QContext

    searched = []
    enumerate_group = weyl.enumerate_group

    def counting(rs):
        searched.append(rs.label)
        return enumerate_group(rs)

    group("B2")
    monkeypatch.setattr(weyl, "enumerate_group", counting)
    ctx = QContext(EXACT, order=2)
    first = checks(campaigns.run_duality("B2", ctx, 1, 0, 1e-9))
    checks(campaigns.run_normalization("B2", ctx, 1, 0, 1e-9))
    assert checks(campaigns.run_duality("B2", ctx, 1, 0, 1e-9)) == first
    assert searched == []


def test_campaign_yields_a_point_before_the_next_is_computed(monkeypatch):
    # a runner builds records from one point's values as they are read, so
    # the first row of records needs the first point only
    from ellschub import campaigns
    from ellschub.elliptic import EXACT, QContext

    calls = []

    def counting(*args):
        calls.append(args)
        return duality_pairs(*args)

    monkeypatch.setattr(campaigns, "duality_pairs", counting)
    records = campaigns.run_duality("A1", QContext(EXACT, order=2), 2, 0, 1e-9)
    (ok, line), *rest = checks([next(records)])
    assert len(calls) == 1
    first = json.loads(line)
    assert (first["point"], first["omega_word"], first["sigma_word"]) == (0, [], [])
    assert ok is first["pass"]
    assert len(rest) + len(checks(records)) == 2 * 4 - 1
    assert len(calls) == 2
