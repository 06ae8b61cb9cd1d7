"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them on success)."""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from random import Random

from ellschub.classes import (
    StepMemo,
    bs_table,
    c_recursion_left_sides,
    c_recursion_right_sides,
    normalization_factor,
    rmatrix_table,
    unnormalized_table,
)
from ellschub.corpus import (
    builtin_chart,
    corpus_sides,
    cross_substitution_pairs,
    cross_substitution_sides,
    load_corpus,
    sp2_chart,
    worked_sum_values,
    WORKED_SUM_SIGMA,
)
from ellschub.duality import (
    double_dual_pairs,
    duality_pairs,
    f_interpretation_point,
)
from ellschub.elliptic import (
    ComplexContext,
    ExactContext,
    QSeries,
    delta,
    sample_point,
)
from ellschub.weyl import dual_group, group
from elliptic_reference import theta, theta_prime_one
from weyl_reference import bruhat_leq, descents_right

EXACT8 = ExactContext(order=8)
COMPLEX_CTX = ComplexContext(order=8, q=0.3)

def is_zero(v):
    return all(c == 0 for c in v.coeffs)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def seeded_exact_point(rank, tag):
    return sample_point(rank, EXACT8, Random(f"acc:{tag}"))


# --- 1. SL2 corpus -----------------------------------------------------------


def test_criterion_1_sl2_corpus():
    W = group("A1")
    chart = builtin_chart("A1")
    entries = load_corpus("sl2.txt")
    start = time.monotonic()
    with criterion(1, "SL2 corpus"):
        assert len(entries) == 4
        for n, entry in enumerate(entries):
            cv, point = chart.sample(EXACT8, Random(f"acc:sl2:{n}"))
            ((engine, expected),) = corpus_sides(entry, cv, StepMemo(W, point))
            assert engine == expected  # coefficient-exact through q^8
        for k in range(10):
            for n, entry in enumerate(entries):
                cv, point = chart.sample(COMPLEX_CTX, Random(f"acc:sl2c:{n}:{k}"))
                ((engine, expected),) = corpus_sides(entry, cv, StepMemo(W, point))
                scale = max(abs(engine), abs(expected))
                assert abs(engine - expected) <= 1e-9 * max(scale, 1e-30)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"SL2 corpus took {elapsed:.2f}s"


# --- 2. SO(5)/Sp(2) corpus ----------------------------------------------------


def test_criterion_2_so5_sp2_corpus():
    start = time.monotonic()
    with criterion(2, "SO(5)/Sp(2) corpus"):
        tables = {name: load_corpus(name) for name in ("so5.txt", "sp2.txt")}
        for name, entries in tables.items():
            assert len(entries) == 16
            W = group(entries[0].group_label)
            chart = builtin_chart(entries[0].group_label)
            for n, entry in enumerate(entries):
                cv, point = chart.sample(EXACT8, Random(f"acc:{name}:{n}"))
                ((engine, expected),) = corpus_sides(entry, cv, StepMemo(W, point))
                if entry.expects_zero:
                    assert is_zero(engine)  # tabulated 0 is exactly 0
                else:
                    assert engine == expected
        # the worked three-term sum for EE_{s1s2}(X^v_tau0)
        W = group("C2")
        cv, point = sp2_chart().sample(EXACT8, Random("acc:worked"))
        (summed, factored), (engine, _) = worked_sum_values(W.from_word(WORKED_SUM_SIGMA),
                                                            cv, StepMemo(W, point))
        assert summed == factored == engine
        # the closing substitution check across the two tables
        pairs = cross_substitution_pairs(tables["sp2.txt"], tables["so5.txt"])
        for n, (sp2_entry, so5_entry) in enumerate(pairs):
            cv, point = sp2_chart().sample(EXACT8, Random(f"acc:cross:{n}"))
            ((lhs, rhs),) = cross_substitution_sides(sp2_entry, so5_entry, cv,
                                                     StepMemo(W, point))
            assert lhs == rhs
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"SO(5)/Sp(2) corpus took {elapsed:.2f}s"


# --- 3. duality ----------------------------------------------------------------


def test_criterion_3_duality():
    sizes = {"A1": 4, "A2": 36, "B2": 64, "G2": 144}
    start = time.monotonic()
    with criterion(3, "Langlands duality"):
        for label, pair_count in sizes.items():
            W = group(label)
            Wd = dual_group(W)
            for k in range(3):
                point = seeded_exact_point(W.rank, f"dual:{label}:{k}")
                lhs_rows, rhs_rows = map(list, duality_pairs(W, Wd, point))
                assert sum(map(len, lhs_rows)) == sum(map(len, rhs_rows)) == pair_count
                for omega, sigma in product(range(W.order), repeat=2):
                    lhs, rhs = lhs_rows[omega][sigma], rhs_rows[omega][sigma]
                    assert lhs == rhs, (label, omega, sigma)
            # negative control: the flipped sign must fail somewhere
            point = seeded_exact_point(W.rank, f"dualflip:{label}")
            lhs_rows, rhs_rows = duality_pairs(W, Wd, point, flip_sign=True)
            assert any(lhs != rhs for lhs_row, rhs_row in zip(lhs_rows, rhs_rows)
                       for lhs, rhs in zip(lhs_row, rhs_row)), label
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"duality campaign took {elapsed:.2f}s"


# --- 4. recursion cross-consistency ---------------------------------------------


def test_criterion_4_recursion_consistency():
    start = time.monotonic()
    with criterion(4, "Bott-Samelson vs R-matrix"):
        for label in ("A1", "A2", "B2", "G2"):
            W = group(label)
            for k in range(2):
                point = seeded_exact_point(W.rank, f"rec:{label}:{k}")
                memo = StepMemo(W, point)
                for omega in range(W.order):
                    word = W.reduced_word(omega)
                    assert bs_table(memo, word) == rmatrix_table(memo, word)
        W = group("A3")
        point = sample_point(3, COMPLEX_CTX, Random("acc:rec:A3"))
        memo = StepMemo(W, point)
        for omega in range(W.order):
            word = W.reduced_word(omega)
            bs = bs_table(memo, word)
            rm = rmatrix_table(memo, word)
            for sigma in range(W.order):
                scale = max(abs(bs[sigma]), abs(rm[sigma]))
                assert abs(bs[sigma] - rm[sigma]) <= 1e-8 * max(scale, 1e-30)
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"recursion cross-check took {elapsed:.2f}s"


# --- 5. word independence --------------------------------------------------------


def random_reduced_word(W, w, rng):
    letters = []
    while W.length(w) > 0:
        s = rng.choice(descents_right(W, w))
        letters.append(s)
        w = W.rmult(w, s)
    return tuple(reversed(letters))


def test_criterion_5_word_independence():
    with criterion(5, "word independence"):
        W = group("B2")
        point = seeded_exact_point(2, "words:B2")
        assert bs_table(StepMemo(W, point), (1, 2, 1, 2)) == bs_table(
            StepMemo(W, point), (2, 1, 2, 1)
        )

        A3 = group("A3")
        t0 = A3.longest
        rng = Random("acc:words:A3")
        words = {random_reduced_word(A3, t0, rng) for _ in range(12)}
        while len(words) < 3:
            words.add(random_reduced_word(A3, t0, rng))
        point = seeded_exact_point(3, "words:A3")
        tables = [bs_table(StepMemo(A3, point), word) for word in sorted(words)]
        assert all(t == tables[0] for t in tables[1:])

        # non-reduced round trip restores the previous table
        point = seeded_exact_point(2, "words:roundtrip")
        base = bs_table(StepMemo(W, point), (1, 2))
        extended = bs_table(StepMemo(W, point), (1, 2, 2, 2))
        assert extended == base
        assert bs_table(StepMemo(W, point), ()) == bs_table(StepMemo(W, point), (2, 2))


# --- 6. normalization suite -------------------------------------------------------


def test_criterion_6_normalization():
    with criterion(6, "normalization suite"):
        W = group("B2")
        Wd = dual_group(W)
        t0 = W.longest
        for k in range(2):
            point = seeded_exact_point(2, f"norm:{k}")
            memo = StepMemo(W, point)
            for omega in range(W.order):
                for s in (1, 2):
                    for sides in (c_recursion_right_sides, c_recursion_left_sides):
                        lhs, rhs = sides(memo, omega, s)
                        assert is_zero(lhs - rhs)
                word = W.reduced_word(omega)
                c_val = normalization_factor(memo, omega)
                ee = bs_table(StepMemo(W, point), word)
                e_vals = unnormalized_table(StepMemo(W, point), omega)
                for sigma in range(W.order):
                    assert ee[sigma] == c_val * e_vals[sigma]
                target = W.mul(W.inv(omega), t0)
                dual_point = f_interpretation_point(W, point)
                dual_diag = unnormalized_table(StepMemo(Wd, dual_point), target)[target]
                assert c_val == dual_diag


# --- 7. delta unit suite ------------------------------------------------------------


def test_criterion_7_delta_unit_suite():
    with criterion(7, "delta unit suite"):
        rng = Random("acc:delta")
        # symmetry and inversion antisymmetry, exact backend
        for _ in range(50):
            a = Fraction(rng.randint(2, 40), rng.randint(1, 40)) * rng.choice((1, -1))
            b = Fraction(rng.randint(2, 40), rng.randint(1, 40)) * rng.choice((1, -1))
            if a in (0, 1) or b in (0, 1):
                continue
            d = delta(a, b, EXACT8)
            assert delta(b, a, EXACT8) == d
            assert delta(1 / a, 1 / b, EXACT8) == QSeries(tuple(-c for c in d.coeffs))
            # displayed expansion: q^0 and q^1 coefficients
            assert d.coeffs[0] == (a * b - 1) / ((a - 1) * (b - 1))
            assert d.coeffs[1] == 1 / (a * b) - a * b
        # backend agreement to 1e-9 on 100 pairs
        q = Fraction(1, 1000)
        ctx_c = ComplexContext(order=8, q=float(q))
        checked = 0
        while checked < 100:
            a = Fraction(rng.randint(2, 9), rng.randint(2, 9)) * rng.choice((1, -1))
            b = Fraction(rng.randint(2, 9), rng.randint(2, 9)) * rng.choice((1, -1))
            if min(abs(a - 1), abs(b - 1), abs(a * b - 1)) < Fraction(1, 20):
                continue
            checked += 1
            summed = complex(
                sum(c * q**k for k, c in enumerate(delta(a, b, EXACT8).coeffs))
            )
            direct = delta(complex(a), complex(b), ctx_c)
            assert abs(summed - direct) <= 1e-9 * abs(direct)
        # theta'(1) against central differences
        step = 1e-6
        fd = (theta(1 + step, COMPLEX_CTX) - theta(1 - step, COMPLEX_CTX)) / (2 * step)
        tp = theta_prime_one(COMPLEX_CTX)
        assert abs(tp - fd) / abs(tp) < 1e-8


# --- 8. double dual -------------------------------------------------------------------


def test_criterion_8_double_dual():
    with criterion(8, "double-dual constraint"):
        A2 = group("A2")
        assert A2.star == (2, 1)
        point = seeded_exact_point(2, "dd:A2")
        lhs_rows, rhs_rows = map(list, double_dual_pairs(A2, point))
        assert sum(map(len, lhs_rows)) == sum(map(len, rhs_rows)) == 36
        for omega, sigma in product(range(A2.order), repeat=2):
            lhs, rhs = lhs_rows[omega][sigma], rhs_rows[omega][sigma]
            assert lhs == rhs, (omega, sigma)
        # trivial in B2: tau0 is central, the relabeling is the identity
        B2 = group("B2")
        assert B2.star == (1, 2)
        from ellschub.duality import relabel_point

        point = seeded_exact_point(2, "dd:B2")
        assert relabel_point(B2, point).values == point.values
        lhs_rows, rhs_rows = map(list, double_dual_pairs(B2, point))
        for omega, sigma in product(range(B2.order), repeat=2):
            lhs, rhs = lhs_rows[omega][sigma], rhs_rows[omega][sigma]
            assert lhs == rhs


# --- 9. vanishing pattern ---------------------------------------------------------------


def test_criterion_9_vanishing_pattern():
    with criterion(9, "Bruhat vanishing pattern"):
        for label in ("A2", "B2"):
            W = group(label)
            point = seeded_exact_point(W.rank, f"vanish:{label}")
            for omega in range(W.order):
                table = bs_table(StepMemo(W, point), W.reduced_word(omega))
                for sigma in range(W.order):
                    assert is_zero(table[sigma]) == (
                        not bruhat_leq(W, sigma, omega)
                    ), (label, omega, sigma)
        # the tabulated zeros of both tables sit exactly off the Bruhat order
        for name in ("so5.txt", "sp2.txt"):
            entries = load_corpus(name)
            W = group(entries[0].group_label)
            for entry in entries:
                omega = W.from_word(entry.omega_word)
                sigma = W.from_word(entry.sigma_word)
                assert entry.expects_zero == (not bruhat_leq(W, sigma, omega))
