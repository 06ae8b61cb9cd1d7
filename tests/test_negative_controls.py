"""Negative controls with measured power: the exact campaigns fail when one
ingredient of the identity they check is wrong.

Each mutant replaces one ingredient by monkeypatch. On the exact backend at
order 4, seed 0 and one point it must fail at least the stated number of
checks, the count it failed when this test was written, and it must pass on
the groups where it changes nothing, which shows what it really changes:
G^v = G on the simply laced types, s* = s on B2 and G2, and the sign is +1
where l(tau0) is even. A corpus mutant must pass every record of a kind
that does not read what it changes."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from ellschub import campaigns, classes, corpus, duality
from ellschub.elliptic import ExactContext
from test_campaigns import checks

CTX = ExactContext(order=4)
RUNNERS = {"duality": campaigns.run_duality, "double-dual": campaigns.run_double_dual,
           "recursions": campaigns.run_recursions,
           "normalization": campaigns.run_normalization}


def _unstarred(W):
    """W with s -> s* replaced by s -> s."""
    return replace(W, star=tuple(range(1, W.rank + 1)))


def g_in_place_of_dual(mp):
    mp.setattr(campaigns, "dual_group", lambda W: W)


def s_in_place_of_star(mp):
    substitution = duality.substitution
    mp.setattr(duality, "substitution", lambda W: substitution(_unstarred(W)))


def h_not_inverted(mp):
    substitution = duality.substitution

    def mutant(W):
        rows = substitution(W)  # the last row is h -> h^-1
        return rows[:-1] + (tuple(-e for e in rows[-1]),)

    mp.setattr(duality, "substitution", mutant)


def sign_dropped(mp):
    mp.setattr(duality, "duality_sign", lambda W: 1)


def relabeling_without_star(mp):
    relabel_point = duality.relabel_point
    mp.setattr(duality, "relabel_point", lambda W, p: relabel_point(_unstarred(W), p))


def rmatrix_keep_scaled(mp):
    coefficients = classes.StepMemo.coefficients

    def mutant(memo, kept, g, pair):
        if kept is memo.rmatrix:
            def scaled(r, pair=pair):
                keep, mixed = pair(r)
                return keep * Fraction(1001, 1000), mixed
            pair = scaled
        return coefficients(memo, kept, g, pair)

    mp.setattr(classes.StepMemo, "coefficients", mutant)


def bs_mix_scaled(mp):
    """c_mix scaled by 1001/1000, in a copy of the coefficient row, in
    every Bott-Samelson step whose row was first read at its memo by a step
    by s = 1, so that both coset kernels of either ring read it; a later
    step by another s that reads the same coroot reads the scaled row too."""
    bs_step, first = classes.bs_step, {}

    def mutant(memo, table, s, g):
        # by id(memo), with the memo held so that its id is not reused
        readers = first.setdefault(id(memo), (memo, {}))[1]
        if readers.setdefault(g, s) != 1:
            return bs_step(memo, table, s, g)
        row = [c and (c[0], c[1] * Fraction(1001, 1000)) for c in classes.bs_row(memo, g)]
        return classes._step_values(memo.group, table, s, row, memo.point.ctx)

    mp.setattr(classes, "bs_step", mutant)


def c_first_factor_dropped(mp):
    kept_positive = classes._kept_positive
    mp.setattr(classes, "_kept_positive", lambda W, omega: kept_positive(W, omega)[1:])


# (mutant, campaign, {type: (failures at least, checks)}, types where it passes)
CASES = [
    (g_in_place_of_dual, "duality",
     {"B2": (33, 64), "G2": (73, 144), "B3": (847, 2304)}, ("A2", "A3")),
    (s_in_place_of_star, "duality", {"A2": (16, 36), "A3": (197, 576)}, ("B2", "G2")),
    (h_not_inverted, "duality",
     {"A2": (18, 36), "A3": (212, 576), "B2": (32, 64), "G2": (72, 144)}, ()),
    (sign_dropped, "duality", {"A2": (19, 36)}, ("A3", "B2", "G2")),
    (relabeling_without_star, "double-dual", {"A2": (16, 36), "A3": (180, 576)}, ("B2",)),
    (rmatrix_keep_scaled, "recursions",
     {"A2": (13, 36), "B2": (25, 64), "G2": (61, 144)}, ()),
    (c_first_factor_dropped, "normalization", {"A2": (36, 66), "B2": (54, 104)}, ()),
]


def failures(kind, label):
    """(failed checks, checks) of one campaign."""
    verdicts = [ok for ok, _ in checks(RUNNERS[kind](label, CTX, 1, 0,
                                                       campaigns.DEFAULT_TOLS[kind]))]
    return verdicts.count(False), len(verdicts)


def assert_caught(mutant, kind, fails, passes, mp):
    mutant(mp)
    for label, (least, checks) in fails.items():
        failed, total = failures(kind, label)
        assert total == checks and failed >= least, label
    for label in passes:
        assert failures(kind, label)[0] == 0, label


@pytest.mark.parametrize("mutant,kind,fails,passes", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_mutant_is_caught(mutant, kind, fails, passes, monkeypatch):
    assert_caught(mutant, kind, fails, passes, monkeypatch)


# the one Bott-Samelson mutant in each campaign that reads its coefficients:
# (campaign, {type: (failures at least, checks)}, types where it passes)
BS_CASES = [
    ("duality", {"A2": (16, 36), "A3": (186, 576), "B2": (23, 64), "G2": (58, 144)}, ()),
    ("recursions", {"A2": (12, 36), "A3": (169, 576), "B2": (22, 64), "G2": (62, 144)}, ()),
    ("double-dual", {"A2": (12, 36), "A3": (170, 576)}, ("A1", "B2", "G2")),
]


@pytest.mark.parametrize("kind,fails,passes", BS_CASES, ids=[case[0] for case in BS_CASES])
def test_bott_samelson_mutant_is_caught(kind, fails, passes, monkeypatch):
    assert_caught(bs_mix_scaled, kind, fails, passes, monkeypatch)


def so5_monomial_inverted(mp):
    """The first monomial of the first so5.txt entry inverted: that entry
    and its cross-substitution partner fail."""
    load_corpus = corpus.load_corpus

    def mutant(name):
        entries = load_corpus(name)
        if name == "so5.txt":
            (a, b), *rest = entries[0].factors
            entries[0] = replace(entries[0], factors=((tuple(-e for e in a), b), *rest))
        return entries

    mp.setattr(corpus, "load_corpus", mutant)


def cross_h_not_inverted(mp):
    rows = corpus._CROSS_ROWS  # the last row is h -> h^-1
    mp.setattr(corpus, "_CROSS_ROWS", rows[:-1] + (tuple(-e for e in rows[-1]),))


# (mutant, failures at least, (record field, value) of records that pass)
CORPUS_CASES = [
    (so5_monomial_inverted, 2, ("file", "sl2.txt")),
    (cross_h_not_inverted, 9, ("check", "corpus")),
]


@pytest.mark.parametrize("mutant,least,passing", CORPUS_CASES,
                         ids=[case[0].__name__ for case in CORPUS_CASES])
def test_corpus_mutant_is_caught(mutant, least, passing, monkeypatch):
    mutant(monkeypatch)
    records = [(ok, json.loads(line)) for ok, line
               in checks(campaigns.run_corpus(CTX, 1, 0, campaigns.DEFAULT_TOLS["corpus"]))]
    assert len(records) == 54
    assert [ok for ok, _ in records].count(False) >= least
    key, value = passing
    kept = [ok for ok, rec in records if rec.get(key) == value]
    assert kept and all(kept)
