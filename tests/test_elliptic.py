import cmath
from fractions import Fraction
from math import gcd
from random import Random

import pytest

from ellschub.elliptic import (
    COMPLEX,
    EXACT,
    NU,
    ZETA,
    EvalPoint,
    QContext,
    QSeries,
    SingularPointError,
    ZeroArgumentError,
    delta,
    eval_monomial,
    sample_point,
    transform_point,
)
from ellschub.rootsys import COROOT, ROOT, build_root_system, parse_label
from ellschub.weyl import group
from elliptic_reference import product_delta, product_theta_prime_one, theta, theta_prime_one
from weyl_reference import LatticeVector, act


# --- exact series arithmetic ------------------------------------------------


def test_qseries_basic_ops():
    a = QSeries([1, 2, 3])
    b = QSeries([2, 0, 1])
    assert (a + b).coeffs == (3, 2, 4)
    assert (a - b).coeffs == (-1, 2, 2)
    assert (a * b).coeffs == (2, 4, 7)
    assert (2 * a).coeffs == (2, 4, 6)
    assert (a / b).coeffs == (Fraction(1, 2), 1, Fraction(5, 4))


def test_qseries_unit_roundtrip(rng):
    for _ in range(25):
        coeffs = [Fraction(rng.randint(1, 30), rng.randint(1, 30))] + [
            Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(6)
        ]
        f = QSeries(coeffs)
        one = QSeries([1] + [0] * 6)
        assert (f * (one / f)).coeffs == one.coeffs
        assert ((f * f) / f).coeffs == f.coeffs


def test_qseries_division_needs_unit():
    f = QSeries([0, 1, 2])
    with pytest.raises(SingularPointError):
        QSeries([1, 0, 0]) / f


def test_qseries_mixed_orders_rejected():
    with pytest.raises(ValueError):
        QSeries([1, 2]) + QSeries([1, 2, 3])


# --- theta -------------------------------------------------------------------


def test_theta_at_one_vanishes(complex_ctx):
    assert theta(1.0, complex_ctx) == 0


def test_theta_zero_argument(complex_ctx):
    with pytest.raises(ZeroArgumentError):
        theta(0, complex_ctx)


def test_theta_q_zero_closed_form():
    ctx = QContext(COMPLEX, order=4, q=0.0)
    for x in (2.0, 0.3 + 1.1j, -1.5 + 0.2j):
        expected = cmath.sqrt(x) - 1 / cmath.sqrt(x)
        assert abs(theta(x, ctx) - expected) < 1e-14


def test_theta_inversion_antisymmetry(complex_ctx, rng):
    # right half-plane keeps sqrt branches aligned
    for _ in range(20):
        x = rng.uniform(0.5, 2.0) + 1j * rng.uniform(-0.4, 0.4)
        lhs = theta(1 / x, complex_ctx)
        rhs = -theta(x, complex_ctx)
        assert abs(lhs - rhs) < 1e-12 * max(abs(rhs), 1)


def test_theta_exact_backend_rejected(exact_ctx):
    with pytest.raises(ValueError):
        theta(Fraction(2), exact_ctx)


def test_theta_prime_one_q_zero():
    assert theta_prime_one(QContext(COMPLEX, order=4, q=0.0)) == 1


def test_theta_prime_one_finite_difference(complex_ctx):
    # central difference oracle at x = 1
    step = 1e-6
    fd = (theta(1 + step, complex_ctx) - theta(1 - step, complex_ctx)) / (2 * step)
    tp = theta_prime_one(complex_ctx)
    assert abs(tp - fd) / abs(tp) < 1e-8


# --- delta -------------------------------------------------------------------


def test_delta_leading_term(exact_ctx):
    d = delta(Fraction(2), Fraction(3), exact_ctx)
    assert d.coeffs[0] == Fraction(5, 2)


def test_delta_q1_coefficient(exact_ctx):
    d = delta(Fraction(2), Fraction(3), exact_ctx)
    assert d.coeffs[1] == Fraction(1, 6) - 6


def test_delta_expansion_coefficients_random(exact_ctx, rng):
    # leading expansion: c0 = (ab-1)/((a-1)(b-1)), c1 = 1/(ab) - ab
    for _ in range(30):
        a = Fraction(rng.randint(2, 40), rng.randint(1, 40)) * rng.choice((1, -1))
        b = Fraction(rng.randint(2, 40), rng.randint(1, 40)) * rng.choice((1, -1))
        if a in (0, 1) or b in (0, 1):
            continue
        d = delta(a, b, exact_ctx)
        assert d.coeffs[0] == (a * b - 1) / ((a - 1) * (b - 1))
        assert d.coeffs[1] == 1 / (a * b) - a * b


def test_delta_symmetry_and_inversion(exact_ctx, complex_ctx, rng):
    for _ in range(25):
        a = Fraction(rng.randint(2, 30), rng.randint(1, 30)) * rng.choice((1, -1))
        b = Fraction(rng.randint(2, 30), rng.randint(1, 30)) * rng.choice((1, -1))
        if a in (0, 1) or b in (0, 1):
            continue
        assert delta(a, b, exact_ctx) == delta(b, a, exact_ctx)
        neg = QSeries(tuple(-c for c in delta(a, b, exact_ctx).coeffs))
        assert delta(1 / a, 1 / b, exact_ctx) == neg
    for _ in range(25):
        a = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
        b = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
        if abs(a - 1) < 1e-2 or abs(b - 1) < 1e-2:
            continue
        try:
            d = delta(a, b, complex_ctx)
            di = delta(1 / a, 1 / b, complex_ctx)
            ds = delta(b, a, complex_ctx)
        except SingularPointError:
            continue
        assert abs(ds - d) < 1e-12 * max(abs(d), 1)
        assert abs(di + d) < 1e-10 * max(abs(d), 1)


def test_delta_matches_theta_quotient(complex_ctx, rng):
    # the branch-free rearrangement against the defining quotient, with the
    # square-root branch mismatch divided out
    for _ in range(30):
        a = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
        b = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
        if min(abs(a - 1), abs(b - 1), abs(a * b - 1)) < 1e-2:
            continue
        quotient = (
            theta(a * b, complex_ctx)
            * theta_prime_one(complex_ctx)
            / (theta(a, complex_ctx) * theta(b, complex_ctx))
        )
        branch = cmath.sqrt(a * b) / (cmath.sqrt(a) * cmath.sqrt(b))
        val = delta(a, b, complex_ctx)
        assert abs(quotient - branch * val) < 1e-10 * max(abs(val), 1)
    # positive reals: all branches principal, no correction needed
    for _ in range(10):
        a, b = rng.uniform(1.1, 2.0), rng.uniform(0.2, 0.9)
        quotient = (
            theta(a * b, complex_ctx)
            * theta_prime_one(complex_ctx)
            / (theta(a, complex_ctx) * theta(b, complex_ctx))
        )
        val = delta(a, b, complex_ctx)
        assert abs(quotient - val) < 1e-10 * max(abs(val), 1)


def mp_product_delta(mpmath, a, b, q) -> complex:
    """delta(a, b) as the product form at 50 digits, its tail cut once
    |q^n| max(|x|, 1/|x|) over x in a, b, ab is below 1e-30, far below the
    rounding of a double."""
    with mpmath.workdps(50):
        a, b, q = mpmath.mpc(a), mpmath.mpc(b), mpmath.mpmathify(q)
        ab = a * b
        big = max(max(abs(x), 1 / abs(x)) for x in (a, b, ab))
        # (1 - q^n x)(1 - q^n/x) = 1 - q^n (x + 1/x) + q^(2n)
        s_ab, s_a, s_b = (x + 1 / x for x in (ab, a, b))
        top, bottom = ab - 1, (a - 1) * (b - 1)
        qn = q
        while abs(qn) * big >= 1e-30:
            q2n = qn * qn
            top *= (1 - qn * s_ab + q2n) * (1 - 2 * qn + q2n)
            bottom *= (1 - qn * s_a + q2n) * (1 - qn * s_b + q2n)
            qn *= q
        return complex(top / bottom)


@pytest.mark.parametrize("q", [0.3, -0.25, 0.5j, 0.7, 0.9])
def test_complex_delta_accuracy_across_q(q):
    """Complex delta within 1e-13 relative of the 50-digit product on 40
    seeded pairs with |a|, |b| in [1/2, 2] and random phase. The largest
    errors are 2.5e-15 to 6.2e-15 up to |q| = 0.7 and 1.7e-14 at q = 0.9;
    a form whose terms cancel as |q| grows fails here first."""
    mpmath = pytest.importorskip("mpmath")
    ctx = QContext(COMPLEX, order=8, q=q)
    rng = Random(f"delta-accuracy:{q}")
    for _ in range(40):
        a, b = ctx.draw(2, rng)
        reference = mp_product_delta(mpmath, a, b, q)
        assert abs(delta(a, b, ctx) - reference) <= 1e-13 * abs(reference)


def test_delta_singularities(exact_ctx, complex_ctx):
    with pytest.raises(SingularPointError):
        delta(Fraction(1), Fraction(3), exact_ctx)
    with pytest.raises(SingularPointError):
        delta(Fraction(3), Fraction(1), exact_ctx)
    with pytest.raises(ZeroArgumentError):
        delta(Fraction(0), Fraction(3), exact_ctx)
    with pytest.raises(SingularPointError):
        delta(1.0 + 1e-5j, 3.0, complex_ctx)
    with pytest.raises(ZeroArgumentError):
        delta(0.0, 3.0, complex_ctx)


def test_complex_delta_outside_the_range_of_doubles_is_singular():
    # delta(-1, i) at q = 0.995 is about 3.5e-425 (40-digit product): in
    # doubles it underflows to 0, and a check of zeros would pass vacuously;
    # delta(-1, 2) is in range, 808.03727039920 at 40 digits
    ctx = QContext(COMPLEX, order=8, q=0.995)
    with pytest.raises(SingularPointError, match="outside the range of doubles"):
        delta(-1.0, 1j, ctx)
    assert abs(delta(-1.0, 2.0, ctx) - 808.03727039920) < 1e-9


def test_complex_product_that_10000_factors_do_not_converge_is_refused():
    # 0.997^10000 is about 9e-14, far above the 1e-18 tail bound
    ctx = QContext(COMPLEX, order=8, q=0.997)
    for value in (lambda: delta(2.0, 3.0, ctx), lambda: theta_prime_one(ctx)):
        with pytest.raises(ValueError, match=r"q = 0\.997(\+0j)?: 10000 factors"):
            value()


def _repr_outcome(compute):
    try:
        return repr(compute())
    except (SingularPointError, ZeroArgumentError, ValueError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("q", [0.3, -0.9, 0.6j, 0.99])
def test_complex_delta_is_the_same_with_a_shared_power_table(q):
    # the table of (q^n, |q^n|, (1-q^n)^2) that a memo's deltas share holds
    # the values the product computes afresh, and reaches as far as the
    # longest product met; |a| and |b| run from 1/16 to 16, so a table made
    # by a short product is extended by a long one, and a long one's table
    # is read by short ones
    ctx = QContext(COMPLEX, order=8, q=q)
    rng = Random(f"shared-table:{q}")
    args = [2.0**e * cmath.exp(1j * rng.uniform(0.0, 2 * cmath.pi)) for e in range(-4, 5)]
    pairs = [(a, b) for a in args for b in args]
    fresh = {pair: _repr_outcome(lambda: ctx.delta(*pair)) for pair in pairs}
    assert len(set(fresh.values())) > len(pairs) // 2
    short, long = (args[4], args[4]), (args[0], args[0])  # |ab| = 1 and 1/256
    for order in ([short, long], [long, short], pairs, pairs[::-1]):
        powers = {}
        assert [_repr_outcome(lambda: ctx.delta(*pair, powers)) for pair in order] == \
            [fresh[pair] for pair in order]
        assert list(powers) == [q]


def test_complex_delta_with_a_shared_table_refuses_the_same_q():
    ctx = QContext(COMPLEX, order=8, q=0.997)
    want = _repr_outcome(lambda: ctx.delta(2.0, 3.0))
    assert want[0] is ValueError and want[1].startswith("q = 0.997: 10000 factors")
    powers = {}
    for _ in range(2):  # the second call reads the 10000 rows the first made
        assert _repr_outcome(lambda: ctx.delta(2.0, 3.0, powers)) == want
        assert len(powers[ctx.q]) == 10_000


def test_backend_agreement(rng):
    # sum the exact series at q = 1/1000 and compare with the complex value
    q = Fraction(1, 1000)
    ctx_e = QContext(EXACT, order=8)
    ctx_c = QContext(COMPLEX, order=8, q=float(q))
    checked = 0
    while checked < 100:
        a = Fraction(rng.randint(2, 9), rng.randint(2, 9)) * rng.choice((1, -1))
        b = Fraction(rng.randint(2, 9), rng.randint(2, 9)) * rng.choice((1, -1))
        if min(abs(a - 1), abs(b - 1), abs(a * b - 1)) < Fraction(1, 20):
            continue
        checked += 1
        summed = complex(sum(c * q**k for k, c in enumerate(delta(a, b, ctx_e).coeffs)))
        direct = delta(complex(a), complex(b), ctx_c)
        assert abs(summed - direct) <= 1e-9 * abs(direct)


# --- monomials and points ----------------------------------------------------


def test_eval_monomial_basics(exact_ctx):
    point = EvalPoint(exact_ctx, (Fraction(2), Fraction(3), Fraction(5, 7),
                                  Fraction(-1, 3), Fraction(9)))
    assert eval_monomial(point, (0,) * 5) == 1
    m = (2, -1, 1, 0, 3)
    assert eval_monomial(point, m) * eval_monomial(point, tuple(-e for e in m)) == 1
    assert eval_monomial(point, m) == Fraction(4, 3) * Fraction(5, 7) * 729


def test_eval_monomial_so5_chart_example(exact_ctx):
    # nu1 = mu2/mu1, nu2 = 1/mu2^2 at mu1=3, mu2=5: nu1^2 nu2 = 1/9
    nu1 = Fraction(5, 3)
    nu2 = Fraction(1, 25)
    point = EvalPoint(exact_ctx, (Fraction(1), Fraction(1), nu1, nu2, Fraction(2)))
    val = eval_monomial(point, (0, 0, 2, 1, 0))
    assert val == Fraction(1, 9)
    assert 1 / val == Fraction(3) ** 2


def test_transform_point_involution(exact_ctx, rng):
    rs = build_root_system(parse_label("B2"))
    point = sample_point(2, exact_ctx, rng)
    for s in (1, 2):
        for sector in (ZETA, NU):
            twice = transform_point(
                transform_point(point, s, sector, rs), s, sector, rs
            )
            assert twice.values == point.values


def test_transform_point_a1_nu():
    ctx = QContext(EXACT, order=4)
    rs = build_root_system(parse_label("A1"))
    point = EvalPoint(ctx, (Fraction(3), Fraction(5, 2), Fraction(7)))
    moved = transform_point(point, 1, NU, rs)
    assert moved.values == (Fraction(3), Fraction(2, 5), Fraction(7))


def test_transform_point_b2_zeta_example():
    # s2: zeta1 -> zeta1 zeta2^2, zeta2 -> 1/zeta2
    ctx = QContext(EXACT, order=4)
    rs = build_root_system(parse_label("B2"))
    z1, z2 = Fraction(3), Fraction(5)
    point = EvalPoint(ctx, (z1, z2, Fraction(7), Fraction(11), Fraction(13)))
    moved = transform_point(point, 2, ZETA, rs)
    assert moved.values[0] == z1 * z2**2
    assert moved.values[1] == 1 / z2
    assert moved.values[2:] == point.values[2:]


def test_transform_commutes_with_eval(exact_ctx, rng):
    # eval(transform(p, s), m) equals eval(p, pullback of m), the pullback
    # acting on the matching exponent block by the reflection matrix
    W = group("B2")
    rs = W.rs
    point = sample_point(2, exact_ctx, rng)
    for s in (1, 2):
        g = W.from_word((s,))
        for beta in rs.positive_roots:
            m = beta + (0, 0, 0)
            pulled = act(W, g, rs_vec(beta)).coords + (0, 0, 0)
            assert eval_monomial(transform_point(point, s, ZETA, rs), m) == \
                eval_monomial(point, pulled)
        for gamma in rs.positive_coroots:
            m = (0, 0) + gamma + (0,)
            pulled = (0, 0) + act(W, g, rs_covec(gamma)).coords + (0,)
            assert eval_monomial(transform_point(point, s, NU, rs), m) == \
                eval_monomial(point, pulled)


def rs_vec(coords):
    return LatticeVector(coords, ROOT)


def rs_covec(coords):
    return LatticeVector(coords, COROOT)


def test_sample_point_ranges():
    ctx = QContext(EXACT, order=4)
    point = sample_point(3, ctx, Random(1))
    assert len(point.values) == 7
    for v in point.values:
        assert v != 0 and v != 1
        assert abs(v.numerator) <= 99 and v.denominator <= 99
    ctxc = QContext(COMPLEX, order=4, q=0.3)
    pc = sample_point(3, ctxc, Random(1))
    for v in pc.values:
        assert 0.5 - 1e-12 <= abs(v) <= 2.0 + 1e-12


def test_sampling_deterministic():
    ctx = QContext(EXACT, order=4)
    a = sample_point(2, ctx, Random("seed-x"))
    b = sample_point(2, ctx, Random("seed-x"))
    assert a.values == b.values


# --- integer numerators over one denominator, against Fraction references ---


class FractionQSeries:
    """The former QSeries: one Fraction per coefficient, kept as a reference."""

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    @classmethod
    def constant(cls, value, order):
        return cls((Fraction(value),) + (Fraction(0),) * order)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if isinstance(other, FractionQSeries):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == FractionQSeries.constant(other, self.order)
        return NotImplemented

    def __repr__(self):
        return f"QSeries({list(self.coeffs)!r})"

    def _coerce(self, other):
        if isinstance(other, FractionQSeries):
            return other
        return FractionQSeries.constant(other, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        return FractionQSeries(a + b for a, b in zip(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return FractionQSeries(-a for a in self.coeffs)

    def __sub__(self, other):
        other = self._coerce(other)
        return FractionQSeries(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        n = len(a)
        out = [Fraction(0)] * n
        for i, ai in enumerate(a):
            if ai:
                for j in range(n - i):
                    bj = b[j]
                    if bj:
                        out[i + j] += ai * bj
        return FractionQSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.coeffs[0] == 0:
            raise SingularPointError("division by q-series with zero constant term")
        a, b = self.coeffs, other.coeffs
        n = len(a)
        out = [Fraction(0)] * n
        b0 = b[0]
        for k in range(n):
            acc = a[k]
            for j in range(1, k + 1):
                if b[j] and out[k - j]:
                    acc -= b[j] * out[k - j]
            out[k] = acc / b0
        return FractionQSeries(out)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def sum_at(self, q):
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * q + complex(c)
        return acc


def _mul_two_term(coeffs, n, c):
    """In place: coeffs *= (1 - c q^n), truncated."""
    for k in range(len(coeffs) - 1, n - 1, -1):
        if coeffs[k - n]:
            coeffs[k] -= c * coeffs[k - n]


def fraction_delta(a: Fraction, b: Fraction, order: int) -> FractionQSeries:
    """The former exact delta: Fraction two-term products, one division."""
    for x in (a, b):
        if x == 0:
            raise ZeroArgumentError("delta argument is 0")
        if x == 1:
            raise SingularPointError("delta argument is 1 (pole)")
    ab = a * b
    lead = (ab - 1) / ((a - 1) * (b - 1))
    num = [Fraction(1)] + [Fraction(0)] * order
    den = list(num)
    for n in range(1, order + 1):
        for c in (ab, 1 / ab, Fraction(1), Fraction(1)):
            _mul_two_term(num, n, c)
        for c in (a, 1 / a, b, 1 / b):
            _mul_two_term(den, n, c)
    series = FractionQSeries(num) / FractionQSeries(den)
    return FractionQSeries(lead * c for c in series.coeffs)


def assert_canonical(s):
    assert isinstance(s, QSeries)
    assert s.den > 0 and gcd(s.den, *s.num) == 1


def assert_same(got, ref):
    assert_canonical(got)
    assert got == QSeries(ref.coeffs)
    assert got.coeffs == ref.coeffs
    assert repr(got) == repr(ref)


def _random_coeff(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    if kind == 2:
        return Fraction(rng.randint(-99, 99), rng.randint(1, 99))
    if kind == 3:
        return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**20))
    return Fraction(rng.randint(-99, 99), 2**rng.randint(0, 8))


def _random_series(rng, order):
    kind = rng.randrange(6)
    if kind == 0:
        return [Fraction(0)] * (order + 1)
    coeffs = [_random_coeff(rng) for _ in range(order + 1)]
    if kind == 1:
        coeffs[0] = Fraction(0)
    elif kind == 2:  # one shared denominator
        d = rng.randint(1, 60)
        coeffs = [Fraction(rng.randint(-60, 60), d) for _ in range(order + 1)]
    return coeffs


def sum_at(series: QSeries, q):
    """The value of a truncated series at a concrete q, read from its
    integer numerators and common denominator."""
    acc = 0j
    for n in reversed(series.num):
        acc = acc * q + complex(n / series.den)
    return acc


def _outcome(compute):
    try:
        return compute()
    except (SingularPointError, ZeroArgumentError) as err:
        return (type(err), str(err))


@pytest.mark.parametrize("order", range(11))
def test_qseries_matches_fraction_reference(order):
    rng = Random(f"qseries-{order}")
    ctx = QContext(EXACT, order=max(order, 1))
    for _ in range(40):
        ca = _random_series(rng, order)
        cb = _random_series(rng, order)
        pick = rng.randrange(4)
        if pick == 1:
            cb = list(ca)
        elif pick == 2:
            cb = [-c for c in ca]
        a, b = QSeries(ca), QSeries(cb)
        ra, rb = FractionQSeries(ca), FractionQSeries(cb)
        assert_same(a, ra)
        assert_same(b, rb)
        assert len(a.num) == order + 1
        assert_same(QSeries(a.coeffs), ra)
        assert_same(a + b, ra + rb)
        assert_same(a - b, ra - rb)
        assert_same(-a, -ra)
        assert_same(a * b, ra * rb)
        quotient = _outcome(lambda: a / b)
        expected = _outcome(lambda: ra / rb)
        if isinstance(expected, tuple):
            assert quotient == expected
        else:
            assert_same(quotient, expected)
        assert_same((a - b) + b, ra)
        for scalar in (3, -1, 0, Fraction(-7, 12), _random_coeff(rng)):
            assert_same(a + scalar, ra + scalar)
            assert_same(a - scalar, ra - scalar)
            assert_same(scalar * a, scalar * ra)
            assert_same(a * scalar, ra * scalar)
            if scalar:
                assert_same(a / scalar, ra / scalar)
            assert (a == scalar) == (ra == scalar)
        assert (a == b) == (ra == rb)
        assert (a == QSeries(cb)) == (ra == FractionQSeries(cb))
        assert ctx.is_zero(a) == all(c == 0 for c in ra.coeffs)
        assert ctx.is_zero(a - b) == (ra == rb)
        assert ctx.magnitude(a) == max(abs(float(c)) for c in ra.coeffs)
        assert sum_at(a, 0.3 + 0.1j) == ra.sum_at(0.3 + 0.1j)


@pytest.mark.parametrize("order", (0, 1, 4, 8, 10))
def test_division_reuses_the_divisor_reciprocal(order):
    rng = Random(f"reciprocal-{order}")
    for _ in range(15):
        cb = _random_series(rng, order)
        b, rb = QSeries(cb), FractionQSeries(cb)
        for _ in range(4):  # the first division works out 1/b, the rest reuse it
            ca = _random_series(rng, order)
            got = _outcome(lambda: QSeries(ca) / b)
            want = _outcome(lambda: FractionQSeries(ca) / rb)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert_same(got, want)
        if rb.coeffs[0]:
            inv = b._reciprocal()
            assert b._reciprocal() is inv
            assert_same(inv, 1 / rb)
            assert_same(b / b, FractionQSeries.constant(1, order))
        else:
            assert b._inv is None


def test_qseries_constant_and_zero_forms():
    for order in (1, 4):
        zero = QContext(EXACT, order=order).zero()
        assert zero.num == (0,) * (order + 1) and zero.den == 1
        assert (QSeries([Fraction(1, 3)] * (order + 1)) * 0).den == 1
        c = QSeries.constant(Fraction(-6, 4), order)
        assert c.num == (-3,) + (0,) * order and c.den == 2
        assert QContext(EXACT, order=order).one() == 1


def _random_argument(rng):
    return Fraction(rng.randint(1, 99) * rng.choice((1, -1)), rng.randint(1, 99))


@pytest.mark.parametrize("order", range(1, 11))
def test_delta_exact_matches_fraction_reference(order):
    rng = Random(f"delta-{order}")
    ctx = QContext(EXACT, order=order)
    for _ in range(12):
        a, b = _random_argument(rng), _random_argument(rng)
        if rng.random() < 0.3:  # eval_monomial-sized arguments
            a *= _random_argument(rng) ** 3
        got = _outcome(lambda: ctx.delta(a, b))
        want = _outcome(lambda: fraction_delta(a, b, order))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same(got, want)
    for a, b in ((Fraction(1), Fraction(-3, 7)), (Fraction(5, 2), Fraction(1)),
                 (Fraction(3, 8), Fraction(8, 3)), (Fraction(-2), Fraction(-1, 2)),
                 (Fraction(0), Fraction(2)), (Fraction(-1), Fraction(-1))):
        got = _outcome(lambda: ctx.delta(a, b))
        want = _outcome(lambda: fraction_delta(a, b, order))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same(got, want)


@pytest.mark.parametrize("order", range(1, 11))
def test_theta_prime_one_matches_fraction_reference(order):
    # the integer factor expansion behind product_delta, at x = 1
    coeffs = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        _mul_two_term(coeffs, n, Fraction(1))
        _mul_two_term(coeffs, n, Fraction(1))
    assert_same(product_theta_prime_one(order), FractionQSeries(coeffs))


# --- the divisor-sum delta against the product rearrangement ----------------


# 1 to 16, then orders of many divisors (24, 30 and 36 have 8, 8 and 9), where
# the divisor sum at q^order has the most terms; the reference takes up to
# 0.1 s a pair at order 36, so the high orders check a few pairs each.
@pytest.mark.parametrize("order", (*range(1, 17), 24, 30, 36))
def test_delta_exact_matches_product_reference(order):
    rng = Random(f"triple-product-{order}")
    ctx = QContext(EXACT, order=order)
    few = order > 16
    pairs = [(_random_argument(rng), _random_argument(rng)) for _ in range(2 if few else 16)]
    pairs += [(_random_argument(rng) ** 3, _random_argument(rng)) for _ in range(1 if few else 4)]
    pairs += [
        (Fraction(3, 8), Fraction(8, 3)),  # ab = 1: the zero series
        (Fraction(1), Fraction(5)), (Fraction(0), Fraction(5)),
    ]
    if not few:
        pairs += [
            (Fraction(-1), _random_argument(rng)), (Fraction(-1), Fraction(-1)),
            (Fraction(99), Fraction(1, 98)), (Fraction(-7, 3), Fraction(-3, 7)),
            (Fraction(-99, 97), Fraction(-98)), (Fraction(1, 99), Fraction(-99, 2)),
        ]
    for a, b in pairs:
        got = _outcome(lambda: delta(a, b, ctx))
        want = _outcome(lambda: product_delta(a, b, order))
        if isinstance(want, tuple):  # the same error and message
            assert got == want
        else:
            assert (got.num, got.den) == (want.num, want.den)
    assert delta(Fraction(3, 8), Fraction(8, 3), ctx) == 0


@pytest.mark.parametrize("order", (5, 6, 10, 12, 15, 24, 30, 36))
def test_delta_exact_truncation_is_consistent(order):
    # 5 is prime, and 12, 24, 30 and 36 have 6 to 9 divisors: the divisor sum
    # at q^order has the fewest and the most terms
    rng = Random(f"truncation-{order}")
    low, high = QContext(EXACT, order=order), QContext(EXACT, order=order + 5)
    pairs = [(_random_argument(rng), _random_argument(rng)) for _ in range(12)]
    pairs += [(_random_argument(rng) ** 3, _random_argument(rng)),
              (Fraction(-5, 9), Fraction(-9, 5))]  # ab = 1
    for a, b in pairs:
        if 1 in (a, b):
            continue
        assert delta(a, b, low).coeffs == delta(a, b, high).coeffs[:order + 1]


@pytest.mark.parametrize("order", (1, 8))
def test_delta_exact_raises_before_series_work(order, monkeypatch):
    from ellschub import elliptic

    def no_series(*args):
        raise AssertionError("series work on an argument that must be refused")

    monkeypatch.setattr(elliptic, "_power_rows", no_series)
    monkeypatch.setattr(QSeries, "_new", classmethod(no_series))
    ctx = QContext(EXACT, order=order)
    for a, b, err, message in (
        (0, 3, ZeroArgumentError, "delta argument is 0"),
        (Fraction(2, 3), Fraction(0), ZeroArgumentError, "delta argument is 0"),
        (0, 1, ZeroArgumentError, "delta argument is 0"),
        (1, Fraction(-2, 5), SingularPointError, "delta argument is 1 (pole)"),
        (Fraction(7), Fraction(3, 3), SingularPointError, "delta argument is 1 (pole)"),
        (1, 0, SingularPointError, "delta argument is 1 (pole)"),
    ):
        with pytest.raises(err) as info:
            delta(a, b, ctx)
        assert str(info.value) == message


def _kernel_series(rng, order, den=None):
    """A random QSeries at order; with den, one over exactly that denominator
    (its constant term is 1/den), with numerators of both signs."""
    if den is None:
        return QSeries(_random_series(rng, order))
    return QSeries([Fraction(1, den)] + [Fraction(rng.randint(-10**12, 10**12), den)
                                         for _ in range(order)])


@pytest.mark.parametrize("order", (1, 8, 36))
def test_exact_coset_kernels_equal_the_plain_expressions(order):
    rng = Random(f"coset-kernels-{order}")
    ctx = QContext(EXACT, order=order)
    pair, single = ctx.pair, ctx.single
    zero = QSeries([0] * (order + 1))
    cases = [tuple(_kernel_series(rng, order) for _ in range(6)) for _ in range(30)]
    # a*x and b*y, and d*x and c*y, over equal denominators: 12*35 = 60*7
    equal = [tuple(_kernel_series(rng, order, den) for den in (12, 60, 60, 12, 35, 7))
             for _ in range(3)]
    # over coprime ones: 3*5 and 7*11, 13*5 and 17*11
    coprime = [tuple(_kernel_series(rng, order, den) for den in (3, 7, 17, 13, 5, 11))
               for _ in range(3)]
    for a, b, c, d, x, y in equal:
        assert a.den * x.den == b.den * y.den and d.den * x.den == c.den * y.den
    for a, b, c, d, x, y in coprime:
        assert gcd(a.den * x.den, b.den * y.den) == gcd(d.den * x.den, c.den * y.den) == 1
    cases += equal + coprime
    # the zero series in each place
    cases += [case[:k] + (zero,) + case[k + 1:] for case in cases[:6] for k in range(6)]
    assert any(v < 0 for case in cases for s in case for v in s.num)
    for a, b, c, d, x, y in cases:
        got = pair((a, b), (c, d), x, y)
        assert got == (a * x + b * y, c * y + d * x)
        got += single((a, b), (c, d), x)
        assert got[2:] == (a * x, d * x)
        for s in got:
            assert_canonical(s)


def test_complex_coset_kernels_are_the_plain_expressions():
    # the complex digests pin the order of float operations, so the kernels
    # must give the bits of the plain expressions
    rng = Random("coset-kernels-complex")
    ctx = QContext(COMPLEX)
    pair, single = ctx.pair, ctx.single
    for _ in range(500):
        a, b, c, d, x, y = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                            * 10.0 ** rng.randint(-150, 150) for _ in range(6))
        assert repr(pair((a, b), (c, d), x, y)) == repr((a * x + b * y, c * y + d * x))
        assert repr(single((a, b), (c, d), x)) == repr((a * x, d * x))


def test_exact_magnitude_beyond_the_float_range_is_inf():
    # the largest coefficient of this delta is about 3e320 at order 160, and
    # about 4e300 at order 150
    ctx = QContext(EXACT, order=160)
    assert ctx.magnitude(delta(Fraction(-98), Fraction(97), ctx)) == float("inf")
    below = QContext(EXACT, order=150)
    assert 1e300 < below.magnitude(delta(Fraction(-98), Fraction(97), below)) < 1e301


# --- deferred delta values and quotients ------------------------------------


def _deferred(series):
    """Whether series is still deferred: its `_make` is dropped once made."""
    return hasattr(series, "_make")


def test_an_unread_exact_delta_makes_no_power_row_and_no_series(monkeypatch):
    from ellschub import classes, elliptic
    from ellschub.classes import StepMemo

    calls, rows, made = [], [], []
    traced, power_rows, new = classes.delta, elliptic._power_rows, QSeries._new.__func__

    def counting_delta(a, b, ctx, **kwargs):
        calls.append((a, b))
        return traced(a, b, ctx, **kwargs)

    def counting_rows(u, v, n):
        rows.append((u, v))
        return power_rows(u, v, n)

    def counting_new(cls, num, den):
        made.append(den)
        return new(cls, num, den)

    monkeypatch.setattr(classes, "delta", counting_delta)
    monkeypatch.setattr(elliptic, "_power_rows", counting_rows)
    monkeypatch.setattr(QSeries, "_new", classmethod(counting_new))
    W = group("A2")
    memo = StepMemo(W, sample_point(W.rank, QContext(EXACT, order=8), Random("unread")))
    value = memo.delta(memo.roots[0], memo.point.h)
    assert len(calls) == 1 and memo.deltas  # called, checked and kept
    assert (rows, made, memo.powers) == ([], [], {}) and _deferred(value)
    assert memo.delta(memo.roots[0], memo.point.h) is value and len(calls) == 1
    assert_same(value, fraction_delta(memo.roots[0], memo.point.h, 8))
    # made on the first of those reads, reduced once, and kept
    assert len(rows) == len(memo.powers) == 2 and len(made) == 1 and not _deferred(value)


def _deferred_cases(order):
    """(make, reference) pairs: make() returns a fresh deferred delta value or
    quotient, reference the FractionQSeries it must equal."""
    rng = Random(f"deferred-{order}")
    ctx = QContext(EXACT, order=order)
    cases = []
    for _ in range(4):
        a, b, c, d = (_random_argument(rng) for _ in range(4))
        if 1 in (a, b, c, d):
            continue
        cases.append((lambda a=a, b=b: delta(a, b, ctx), fraction_delta(a, b, order)))
        quotient = fraction_delta(a, b, order) / fraction_delta(c, d, order)
        cases.append((lambda a=a, b=b, c=c, d=d: delta(a, b, ctx) / delta(c, d, ctx), quotient))
        ca, cb = _random_series(rng, order), _random_series(rng, order)
        cb[0] = cb[0] or Fraction(1)
        cases.append((lambda ca=ca, cb=cb: QSeries(ca) / QSeries(cb),
                      FractionQSeries(ca) / FractionQSeries(cb)))
    # ab = 1 gives the zero series, over 1 in lowest terms
    cases.append((lambda: delta(Fraction(3, 8), Fraction(8, 3), ctx),
                  FractionQSeries.constant(0, order)))
    cases.append((lambda: delta(Fraction(3, 8), Fraction(8, 3), ctx) / delta(2, 5, ctx),
                  FractionQSeries.constant(0, order)))
    return ctx, cases


@pytest.mark.parametrize("order", range(1, 11))
def test_deferred_values_equal_the_eager_reference(order):
    import copy
    import pickle

    ctx, cases = _deferred_cases(order)
    for make, reference in cases:
        eager = QSeries(reference.coeffs)
        assert _deferred(make())
        assert make() == eager and eager == make() and make() == QSeries(reference.coeffs)
        assert repr(make()) == repr(reference)
        assert make().coeffs == reference.coeffs
        assert (make().num, make().den) == (eager.num, eager.den)
        assert -make() == -eager
        assert ctx.magnitude(make()) == ctx.magnitude(eager)
        assert ctx.is_zero(make()) == ctx.is_zero(eager)
        assert (make() == 0) == (eager == 0)
        for clone in (copy.copy(make()), copy.deepcopy(make()),
                      pickle.loads(pickle.dumps(make()))):
            assert not _deferred(clone)
            assert_same(clone, reference)
        value = make()
        assert_same(value, reference)
        assert not _deferred(value) and value.num is value.num


def test_a_quotient_reads_its_divisor_at_once_and_its_dividend_when_read():
    ctx = QContext(EXACT, order=6)
    powers = {}
    dividend = delta(Fraction(2), Fraction(-5, 3), ctx, powers=powers)
    divisor = delta(Fraction(7, 4), Fraction(-1, 9), ctx)
    quotient = dividend / divisor
    assert _deferred(quotient) and _deferred(dividend) and powers == {}
    assert not _deferred(divisor) and divisor._inv is not None
    assert_same(quotient, fraction_delta(Fraction(2), Fraction(-5, 3), 6)
                / fraction_delta(Fraction(7, 4), Fraction(-1, 9), 6))
    assert not _deferred(dividend) and len(powers) == 2


def test_a_division_raises_at_once_without_reading_the_dividend():
    quartic = QContext(EXACT, order=4)
    for order, divisor, message in (
            (4, delta(Fraction(3), Fraction(1, 3), quartic), "zero constant term"),  # ab = 1
            (3, delta(Fraction(7, 4), Fraction(3), quartic), "mixed truncation orders"),
            (5, delta(Fraction(7, 4), Fraction(3), quartic), "mixed truncation orders"),
            (3, QSeries([1] * 5), "mixed truncation orders")):
        powers = {}
        dividend = delta(Fraction(2), Fraction(-5, 3), QContext(EXACT, order=order),
                         powers=powers)
        with pytest.raises((SingularPointError, ValueError), match=message):
            dividend / divisor
        assert _deferred(dividend) and powers == {}
