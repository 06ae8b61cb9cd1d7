from fractions import Fraction
from random import Random

import pytest

from ellschub.classes import StepMemo
from ellschub.corpus import (
    builtin_chart,
    CORPUS_FILES,
    corpus_sides,
    cross_substitution_pairs,
    cross_substitution_sides,
    load_corpus,
    parse_entry,
    parse_monomial,
    sl_chart,
    so5_chart,
    sp2_chart,
    worked_sum_values,
    WORKED_SUM_SIGMA,
)
from ellschub.elliptic import eval_monomial, monomial_map
from ellschub.weyl import group
from weyl_reference import bruhat_leq


def is_zero(v):
    return all(c == 0 for c in v.coeffs)


# --- parsing -----------------------------------------------------------------


RANK2_VARS = ("z1", "z2", "mu1", "mu2", "h")


def test_parse_monomial_forms():
    assert parse_monomial("mu1^2", RANK2_VARS) == (0, 0, 2, 0, 0)
    assert parse_monomial("z2/z1", RANK2_VARS) == (-1, 1, 0, 0, 0)
    assert parse_monomial("1/z2^2", RANK2_VARS) == (0, -2, 0, 0, 0)
    assert parse_monomial("1/(z1*z2)", RANK2_VARS) == (-1, -1, 0, 0, 0)
    assert parse_monomial("mu1*mu2", RANK2_VARS) == (0, 0, 1, 1, 0)
    assert parse_monomial("h", RANK2_VARS) == (0, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        parse_monomial("mu1+mu2", RANK2_VARS)


@pytest.mark.parametrize("line", [
    "A1 - - (q1|h)",  # no chart variable q1
    "A1 - - (1|h)",  # empty monomial
    "A1 - - (z1/z1|h)",  # exponents cancel to the empty monomial
    "B2 - - (z3|h)",  # z3 is not a variable of the SO(5) chart
    "G2 - - (z1|h)",  # the G2 chart has the canonical variables only
])
def test_parse_entry_rejects_bad_monomials(line):
    with pytest.raises(ValueError):
        parse_entry(line)


def test_parse_entry_names_a_malformed_word():
    with pytest.raises(ValueError, match=r"^cannot parse word '1,x'$"):
        parse_entry("A1 1,x - 0")


def test_parse_entry_forms():
    entry = parse_entry("B2 1,2 - (mu1^2|h)(z2/z1|1/(mu1*mu2))")
    assert entry.group_label == "B2"
    assert entry.omega_word == (1, 2)
    assert entry.sigma_word == ()
    assert entry.sign == 1
    assert entry.factors == (
        ((0, 0, 2, 0, 0), (0, 0, 0, 0, 1)),
        ((-1, 1, 0, 0, 0), (0, 0, -1, -1, 0)),
    )
    zero = parse_entry("A1 - 1 0")
    assert zero.expects_zero
    signed = parse_entry("A1 1 1 - (z1/z2|h)")
    assert signed.sign == -1


def test_corpus_files_load():
    sizes = {"sl2.txt": 4, "so5.txt": 16, "sp2.txt": 16}
    for name in CORPUS_FILES:
        entries = load_corpus(name)
        assert len(entries) == sizes[name]
        for entry in entries:
            assert entry.expects_zero or entry.factors


def test_corpus_zero_pattern_matches_bruhat():
    # the tabulated zeros are exactly the non-Bruhat pairs
    for name in ("so5.txt", "sp2.txt"):
        entries = load_corpus(name)
        W = group(entries[0].group_label)
        for entry in entries:
            omega = W.from_word(entry.omega_word)
            sigma = W.from_word(entry.sigma_word)
            assert entry.expects_zero == (not bruhat_leq(W, sigma, omega))


# --- charts ------------------------------------------------------------------


def test_chart_dictionaries(exact_ctx):
    cv = (Fraction(2), Fraction(3), Fraction(5), Fraction(7), Fraction(11))
    so5 = so5_chart().to_point(cv, exact_ctx)
    assert so5.values == (
        Fraction(3, 2), Fraction(1, 3), Fraction(7, 5), Fraction(1, 49), Fraction(11)
    )
    sp2 = sp2_chart().to_point(cv, exact_ctx)
    assert sp2.values == (
        Fraction(3, 2), Fraction(1, 9), Fraction(7, 5), Fraction(1, 7), Fraction(11)
    )
    sl3 = sl_chart(3)
    assert sl3.chart_vars == ("z1", "z2", "z3", "mu1", "mu2", "mu3", "h")
    sl3 = sl3.to_point(tuple(Fraction(p) for p in (2, 3, 5, 7, 11, 13, 17)), exact_ctx)
    assert sl3.values == (
        Fraction(3, 2), Fraction(5, 3), Fraction(11, 7), Fraction(13, 11), Fraction(17)
    )


def test_builtin_chart_labels():
    assert builtin_chart("B2").name == "so5"
    assert builtin_chart("C2").name == "sp2"
    assert builtin_chart("A1").name == "sl2"
    assert builtin_chart("A3").name == "sl4"
    assert builtin_chart("G2").name == "canonical"


def chart_to_canonical(chart, row):
    """Solve for the canonical exponent row whose chart image is the exponent
    row `row` over the chart variables; raises if no exact integer solution
    exists."""
    n_can = len(chart.canonical_map)
    n_chart = len(chart.chart_vars)
    target = [Fraction(e) for e in row]
    # columns = chart images of the canonical variables
    cols = [[Fraction(chart.canonical_map[j][i]) for j in range(n_can)]
            for i in range(n_chart)]
    rows = list(range(n_chart))
    sol = [Fraction(0)] * n_can
    pivots = []
    r = 0
    for c in range(n_can):
        p = next((i for i in rows[r:] if cols[i][c] != 0), None)
        if p is None:
            continue
        i = rows.index(p)
        rows[r], rows[i] = rows[i], rows[r]
        pr = rows[r]
        for other in rows:
            if other != pr and cols[other][c] != 0:
                f = cols[other][c] / cols[pr][c]
                for cc in range(n_can):
                    cols[other][cc] -= f * cols[pr][cc]
                target[other] -= f * target[pr]
        pivots.append((pr, c))
        r += 1
    for pr, c in pivots:
        sol[c] = target[pr] / cols[pr][c]
        target[pr] = Fraction(0)
    for i in rows:
        if target[i] != 0 and all(c == 0 for c in cols[i]):
            raise ValueError("chart monomial is not the image of a canonical monomial")
    # verify and demand integrality
    for i in range(n_chart):
        acc = sum(
            sol[j] * chart.canonical_map[j][i] for j in range(n_can)
        )
        if acc != row[i]:
            raise ValueError("chart monomial is not the image of a canonical monomial")
    if any(s.denominator != 1 for s in sol):
        raise ValueError("canonical preimage requires fractional exponents")
    return tuple(int(s) for s in sol)


def test_chart_naturality(exact_ctx):
    # evaluating a corpus delta argument in chart coordinates equals
    # evaluating its canonical preimage at the mapped point
    for name in CORPUS_FILES:
        for entry in load_corpus(name):
            chart = builtin_chart(entry.group_label)
            cv, point = chart.sample(exact_ctx, Random(f"nat-{name}"))
            for a_exps, b_exps in entry.factors:
                for exps in (a_exps, b_exps):
                    m = chart_to_canonical(chart, exps)
                    assert eval_monomial(point, m) == monomial_map(cv, (exps,))[0]


def test_chart_to_canonical_rejects_non_images():
    chart = so5_chart()
    with pytest.raises(ValueError):
        chart_to_canonical(chart, (0, 0, 0, 1, 0))  # mu2 alone needs nu2^(-1/2)


# --- corpus vs engine -----------------------------------------------------------


@pytest.mark.parametrize("name", ["sl2.txt", "so5.txt", "sp2.txt"])
def test_corpus_entries_match_engine(name, exact_ctx):
    for n, entry in enumerate(load_corpus(name)):
        W = group(entry.group_label)
        chart = builtin_chart(entry.group_label)
        cv, point = chart.sample(exact_ctx, Random(f"corpus-{name}-{n}"))
        ((engine, expected),) = corpus_sides(entry, cv, StepMemo(W, point))
        assert engine == expected


def test_cross_substitution(exact_ctx):
    pairs = cross_substitution_pairs(load_corpus("sp2.txt"), load_corpus("so5.txt"))
    assert len(pairs) == 16
    for n, (sp2_entry, so5_entry) in enumerate(pairs):
        cv, point = sp2_chart().sample(exact_ctx, Random(f"cross-{n}"))
        ((lhs, rhs),) = cross_substitution_sides(sp2_entry, so5_entry, cv,
                                                 StepMemo(group("C2"), point))
        assert lhs == rhs


def test_worked_sum(exact_ctx):
    W = group("C2")
    cv, point = sp2_chart().sample(exact_ctx, Random("worked"))
    (summed, factored), (engine, engine_rhs) = worked_sum_values(
        W.from_word(WORKED_SUM_SIGMA), cv, StepMemo(W, point))
    assert summed == factored
    assert engine == engine_rhs == factored
