"""Scalar rings, the branch-free delta, and evaluation points.

Each scalar ring is one subclass of QContext, registered in RINGS:

  * complex (ComplexContext): double-precision complex, infinite products
    truncated once their tail factors differ from 1 by less than 1e-18;
  * exact (ExactContext): truncated q-series with rational coefficients
    (integer numerators over one common denominator), all arithmetic exact
    modulo q^(N+1).

The basic building block is

    delta(a, b) = theta(ab) theta'(1) / (theta(a) theta(b)),

in which the half-integer powers of theta cancel. The exact ring takes
it from its divisor-sum q-expansion (Kronecker's formula, as stated in
Zagier, "Periods of modular forms and Jacobi theta functions", Invent.
Math. 104 (1991), section 3)

    (ab-1)/((a-1)(b-1)) + sum_{m,k>=1} (a^-m b^-k - a^m b^k) q^(mk),

whose coefficient of q^n is a sum over the divisors m of n: no division,
and O(N log N) terms below q^(N+1). The complex ring keeps the
branch-free product rearrangement

    (ab-1)/((a-1)(b-1)) *
    prod_{n>=1} (1-q^n ab)(1-q^n/(ab))(1-q^n)^2
              / ((1-q^n a)(1-q^n/a)(1-q^n b)(1-q^n/b)),

since its printed digits depend on the order of its float operations.
An exact delta value or quotient runs every check that can raise when it
is made, and its series is expanded when first read (QSeries): so a
point's phase 1 finds every singular point, and a series that no table
reads is never expanded. The tests check delta against its defining
quotient with theta and theta'(1), which live in
tests/elliptic_reference.py. eval_monomial, transform_point and
twist_point stay here only because the benchmark tracer wraps them by
name; the library reads every root and coroot value by index from a
StepMemo.

Formal variables for a rank-r group are ordered (zeta_1..zeta_r,
nu_1..nu_r, h); a monomial is an exponent row, an int tuple over them.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from random import Random

from .rootsys import COROOT, ROOT, RootSystem, _basis, _reflect_coords

EXACT = "exact"
COMPLEX = "complex"

ZETA = "zeta"
NU = "nu"

_TAIL_EPS = 1e-18
_INF = float("inf")


class ZeroArgumentError(ValueError):
    """delta received a zero argument."""


class SingularPointError(ArithmeticError):
    """A delta argument hit a pole (value 1, or too close to one in the
    complex ring), or a recursion coefficient is not invertible.
    Callers are expected to resample the point."""


@dataclass(frozen=True)
class QContext:
    """The scalar ring of a run, named by `backend`: QContext(backend, order,
    q) is an instance of the ring's class in RINGS, which holds all that
    differs between the rings (the exact ring reads `order`, the complex one
    `q`): one, zero, delta and the memo key of its arguments, the draw of n
    values, the list of verdicts of two rows of sides, magnitude, is_zero,
    fields, and the JSON of a value and of a scalar. Its coset kernels make
    a Bott-Samelson step on a right coset {sigma, sigma s}, with (a, b) the
    coefficients (c_keep, c_mix) of sigma, (c, d) those of sigma s and x, y
    their old values: pair((a, b), (c, d), x, y) is (a*x + b*y, c*y + d*x),
    and single((a, b), (c, d), x), for a sigma s outside the support, is
    (a*x, d*x)."""

    backend: str
    order: int = 8
    q: complex = 0.3

    def __new__(cls, backend=None, *args, **kwargs):
        # copy and pickle call cls.__new__(cls), with no backend, on a ring
        ring = cls if backend is None else RINGS.get(backend)
        if ring not in RINGS.values() or not issubclass(ring, cls):
            raise ValueError(f"unknown backend {backend!r}")
        return object.__new__(ring)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("truncation order must be >= 1")
        if self.order > sys.maxsize:  # a series holds order + 1 coefficients
            raise ValueError(f"truncation order must be at most {sys.maxsize}")

    def fields(self) -> dict:
        """The ring's settings that a record or a point document carries."""
        return {"backend": self.backend, "qorder": self.order}


class QSeries:
    """Truncated q-series with exact rational coefficients.

    The coefficients are stored as integer numerators ``num`` over one
    positive denominator ``den``, in lowest terms (gcd(den, *num) == 1; the
    zero series has den == 1), so every rational series has exactly one
    representation. Each operation does plain integer arithmetic on the
    numerators and one gcd reduction at the end; so does the coset kernel of
    a Bott-Samelson step (ExactContext.pair), which makes a sum of two
    products over one denominator and reduces it once. Division multiplies
    by the divisor's reciprocal, which a series computes on the first
    division by it and then keeps.

    A delta value and a quotient are deferred: every check that can raise
    runs when the value is made (ExactContext.delta's zero and pole
    arguments and its list of sums; a division's mixed orders and the
    divisor's reciprocal, which raises SingularPointError on a zero
    constant term), and ``num`` and ``den`` are computed on their first
    read. Until then `_make` holds (length, make, args) with make(*args)
    the unreduced (numerators, denominator); it is dropped once the series
    is made, and making one raises nothing but MemoryError. So a value
    that no table reads is checked but never expanded.
    """

    __slots__ = ("num", "den", "_inv", "_make")

    def __init__(self, coeffs):
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        self.num = tuple(f.numerator * (den // f.denominator) for f in fracs)
        self.den = den
        self._inv = None

    @classmethod
    def _new(cls, num, den):
        """The series num/den, reduced to lowest terms; den != 0."""
        g = gcd(den, *num)
        if den < 0:
            g = -g
        out = object.__new__(cls)
        if g == 1:
            out.num, out.den = tuple(num), den
        else:
            out.num, out.den = tuple([n // g for n in num]), den // g
        out._inv = None
        return out

    @classmethod
    def _deferred(cls, length, make, *args):
        """The series of `length` coefficients num/den, (num, den) =
        make(*args), made and reduced on the first read of num or den."""
        out = object.__new__(cls)
        out._inv = None
        out._make = length, make, args
        return out

    def __getattr__(self, name):
        # reached only for an unset slot: num and den of a deferred series
        if name != "num" and name != "den":
            raise AttributeError(name)
        _, make, args = self._make
        made = QSeries._new(*make(*args))
        self.num, self.den = made.num, made.den
        del self._make
        return made.num if name == "num" else made.den

    def _length(self):
        """The number of coefficients, without making a deferred series."""
        try:
            return self._make[0]
        except AttributeError:
            return len(self.num)

    @classmethod
    def constant(cls, value, order):
        value = Fraction(value)
        return cls._new((value.numerator,) + (0,) * order, value.denominator)

    @property
    def coeffs(self):
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    def __eq__(self, other):
        if isinstance(other, QSeries):
            return self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return self == QSeries.constant(other, len(self.num) - 1)
        return NotImplemented

    def __repr__(self):
        return f"QSeries({list(self.coeffs)!r})"

    def _coerce(self, other):
        if isinstance(other, QSeries):
            if len(other.num) != self._length():
                raise ValueError("mixed truncation orders")
            return other
        if isinstance(other, (int, Fraction)):
            return QSeries.constant(other, self._length() - 1)
        return None

    def _aligned(self, other):
        """The numerators of self and other over their least common
        denominator, and that denominator."""
        da, db = self.den, other.den
        if da == db:
            return self.num, other.num, da
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return [x * fa for x in self.num], [y * fb for y in other.num], da * fa

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, den = self._aligned(other)
        return QSeries._new([x + y for x, y in zip(a, b)], den)

    def __neg__(self):
        return QSeries._new([-x for x in self.num], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, den = self._aligned(other)
        return QSeries._new([x - y for x, y in zip(a, b)], den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QSeries._new(*_product(self, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self times the divisor's reciprocal, made here; the product is
        deferred, so the dividend is not read until the quotient is."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QSeries._deferred(len(other.num), _product, self, other._reciprocal())

    def _reciprocal(self):
        """1/self, worked out on the first division by self and then kept.
        A Bott-Samelson step divides all its coefficients by one delta
        value, and the recurrence scales by powers of the constant term, so
        one reciprocal and a product per division cost much less than
        dividing afresh each time."""
        inv = self._inv
        if inv is None:
            if not self.num[0]:
                raise SingularPointError("division by q-series with zero constant term")
            num, den = _int_reciprocal(self.num)
            db = self.den
            inv = self._inv = QSeries._new([x * db for x in num], den)
        return inv


def _product(a, b):
    """The numerators and denominator of a*b for QSeries a, b, unreduced."""
    return _convolve(a.num, b.num), a.den * b.den


def _convolve(a, b):
    """The integer coefficients of a*b, truncated to len(a) terms."""
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j in range(n - i):
                out[i + j] += ai * b[j]
    return out


def _over_one_den(a, x, b, y):
    """(p*a.num, q*b.num, den) for QSeries a, x, b, y: the products a*x and
    b*y have the numerators p*(a.num*x.num) and q*(b.num*y.num) over den,
    their least common denominator."""
    da, db = a.den * x.den, b.den * y.den
    g = gcd(da, db)
    p, q = db // g, da // g
    return [p * v for v in a.num], [q * v for v in b.num], da * p


def _int_reciprocal(b):
    """Integer numerators num and a denominator den (possibly negative) with
    1/b = num/den as truncated series, for integer b, b[0] != 0.

    Fraction-free: Q[k] = out[k]*b0^(k+1) obeys the integer recurrence
    Q[0] = 1, Q[k] = -sum_{j=1..k} b[j]*Q[k-j]*b0^(j-1), and out = num/b0^n
    with num[k] = Q[k]*b0^(n-1-k)."""
    n = len(b)
    b0 = b[0]
    pows = [1] * n  # b0^k
    for k in range(1, n):
        pows[k] = pows[k - 1] * b0
    c = [bj * p for bj, p in zip(b[1:], pows)]  # c[j-1] = b[j]*b0^(j-1)
    quo = [1]
    for k in range(1, n):
        acc = 0
        for j in range(k):
            if c[j]:
                acc -= c[j] * quo[k - 1 - j]
        quo.append(acc)
    return [x * p for x, p in zip(quo, reversed(pows))], pows[-1] * b0


def _power_rows(u, v, order):
    """v^(N+m) u^(N-m) and u^(N+m) v^(N-m) for m = 0..N, N = order: the
    powers x^-m and x^m of x = u/v over the scale (uv)^N."""
    pu, pv = [1], [1]
    for _ in range(2 * order):
        pu.append(pu[-1] * u)
        pv.append(pv[-1] * v)
    return ([pv[order + m] * pu[order - m] for m in range(order + 1)],
            [pu[order + m] * pv[order - m] for m in range(order + 1)])


def _delta_terms(u, v, s, t, sums, powers):
    """The numerators and denominator of delta(u/v, s/t), unreduced, in
    integers over the scale (u-v)(s-t)(uvst)^N, N = len(sums): a sum of
    products per power of q into sums, zeros on entry. The _power_rows of
    (u, v) and (s, t) are read from, or kept in, powers."""
    n = len(sums)
    rows = []
    for key in ((u, v), (s, t)):
        row = powers.get(key)
        if row is None:
            row = powers[key] = _power_rows(*key, n)
        rows.append(row)
    (down_a, up_a), (down_b, up_b) = rows
    for m in range(1, n + 1):
        dm, um = down_a[m], up_a[m]
        for k, mk in enumerate(range(m - 1, n, m), 1):
            sums[mk] += dm * down_b[k] - um * up_b[k]
    poles = (u - v) * (s - t)
    scale = up_a[0] * up_b[0]
    return [(u * s - v * t) * scale] + [poles * c for c in sums], poles * scale


class ExactContext(QContext):
    """Truncated q-series (QSeries), exact modulo q^(order+1); q is not read."""

    def one(self):
        return QSeries.constant(Fraction(1), self.order)

    def zero(self):
        return QSeries.constant(Fraction(0), self.order)

    @staticmethod
    def pair(ab, cd, x, y):
        """Each output's two products aligned over one denominator, both
        outputs summed in one pass over the coefficients, and one reduction
        per output. The values are those of the plain expressions, as a
        QSeries is kept in lowest terms."""
        (a, b), (c, d) = ab, cd
        a_row, b_row, den1 = _over_one_den(a, x, b, y)
        d_row, c_row, den2 = _over_one_den(d, x, c, y)
        xs, ys = x.num, y.num
        n = len(xs)
        out1, out2 = [0] * n, [0] * n
        for i, (ai, bi, ci, di) in enumerate(zip(a_row, b_row, c_row, d_row)):
            for k, xj, yj in zip(range(i, n), xs, ys):
                out1[k] += ai * xj + bi * yj
                out2[k] += ci * yj + di * xj
        return QSeries._new(out1, den1), QSeries._new(out2, den2)

    @staticmethod
    def single(ab, cd, x):
        """Both products in one pass over x, and one reduction per output."""
        a, d = ab[0], cd[1]
        xs = x.num
        n = len(xs)
        out1, out2 = [0] * n, [0] * n
        for i, (ai, di) in enumerate(zip(a.num, d.num)):
            for k, xj in zip(range(i, n), xs):
                out1[k] += ai * xj
                out2[k] += di * xj
        return QSeries._new(out1, a.den * x.den), QSeries._new(out2, d.den * x.den)

    def delta(self, a, b, powers: dict | None = None) -> QSeries:
        """delta(a, b) from its divisor-sum q-expansion (module text), made
        on its first read (_delta_terms). The zero and pole arguments raise
        here, and so does an order too large to hold: the list of the N
        positive powers' sums, N = order, is made here, with MemoryError
        before any power row is made."""
        u, v, s, t = a.numerator, a.denominator, b.numerator, b.denominator
        for num, den in ((u, v), (s, t)):
            if num == 0:
                raise ZeroArgumentError("delta argument is 0")
            if num == den:
                raise SingularPointError("delta argument is 1 (pole)")
        sums = [0] * self.order  # sums[j] is the coefficient of q^(j+1) over poles
        return QSeries._deferred(self.order + 1, _delta_terms, u, v, s, t, sums,
                                 {} if powers is None else powers)

    def draw(self, n: int, rng: Random) -> tuple:
        """n rationals u/v with 0 < |u|, v < 100 and u != v, drawn one after
        the other."""
        out = []
        while len(out) < n:
            num = rng.randint(1, 99) * rng.choice((1, -1))
            den = rng.randint(1, 99)
            if num != den:  # value 1 is singular for every delta against h
                out.append(Fraction(num, den))
        return tuple(out)

    @staticmethod
    def delta_key(a, b) -> tuple:
        """(u, v, s, t) for a = u/v, b = s/t: ints hash without the modular
        inverse that Fraction.__hash__ takes."""
        return a.numerator, a.denominator, b.numerator, b.denominator

    def verdicts(self, tol: float, lhs_row, rhs_row) -> list:
        """The sides agree iff they are equal series (a QSeries is kept in
        lowest terms, so equal values are equal representations), and an
        unequal pair's residual is the absolute max |coefficient| of
        lhs - rhs; tol is not read."""
        return [(True, "0.0") if lhs == rhs else (False, _float_json(self.magnitude(lhs - rhs)))
                for lhs, rhs in zip(lhs_row, rhs_row)]

    def magnitude(self, value) -> float:
        try:
            return max(abs(n) for n in value.num) / value.den
        except OverflowError:  # the ratio is beyond the largest float
            return _INF

    def is_zero(self, value, scale=None) -> bool:
        return not any(value.num)

    def value_json(self, value) -> list:
        return [self.scalar_json(c) for c in value.coeffs]

    @staticmethod
    def scalar_json(x) -> str:
        return f"{x.numerator}/{x.denominator}"


class ComplexContext(QContext):
    """Double-precision complex at the nome q, |q| < 1; order is not read."""

    def __post_init__(self):
        super().__post_init__()
        if not abs(self.q) < 1:
            raise ValueError("complex backend needs |q| < 1")

    def fields(self) -> dict:
        return {**super().fields(), "q": [self.q.real, self.q.imag]}

    def one(self):
        return complex(1)

    def zero(self):
        return complex(0)

    @staticmethod
    def pair(ab, cd, x, y):
        """The plain expressions, whose order of float operations the
        printed digits pin."""
        (a, b), (c, d) = ab, cd
        return a * x + b * y, c * y + d * x

    @staticmethod
    def single(ab, cd, x):
        return ab[0] * x, cd[1] * x

    def delta(self, a, b, powers: dict | None = None) -> complex:
        """delta(a, b) by the branch-free product (module text). Factor n
        reads (q^n, |q^n|, (1-q^n)^2) from the table in powers under q, made
        as far as first needed; the product stops at the first n with
        |q^n| * big < 1e-18, big the largest modulus of the arguments and
        their inverses, and raises ValueError after 10000 factors."""
        a, b = complex(a), complex(b)
        for x in (a, b):
            if x == 0:
                raise ZeroArgumentError("delta argument is 0")
            if abs(x - 1) < 1e-3:
                raise SingularPointError("delta argument within 1e-3 of 1 (pole)")
        ab = a * b
        val = (ab - 1) / ((a - 1) * (b - 1))
        big = max(abs(ab), 1 / abs(ab), abs(a), 1 / abs(a), abs(b), 1 / abs(b), 1.0)
        table = [] if powers is None else powers.setdefault(self.q, [])
        while len(table) < 10_000 and not (table and table[-1][1] * big < _TAIL_EPS):
            qn = (table[-1][0] if table else 1.0 + 0j) * self.q
            table.append((qn, abs(qn), (1 - qn) ** 2))
        for qn, size, square in table:
            if size * big < _TAIL_EPS:
                break
            den = (1 - qn * a) * (1 - qn / a) * (1 - qn * b) * (1 - qn / b)
            if abs(den) < 1e-6:
                raise SingularPointError("delta argument hits a q-shifted pole")
            val *= (1 - qn * ab) * (1 - qn / ab) * square / den
        else:
            raise ValueError(f"q = {str(self.q).strip('()')}: 10000 factors leave a "
                             "product's tail above 1e-18")
        if not (cmath.isfinite(val) and abs(val) >= sys.float_info.min):
            raise SingularPointError("delta value outside the range of doubles")
        return val

    def draw(self, n: int, rng: Random) -> tuple:
        """n complex numbers with modulus in [1/2, 2], drawn one after the
        other, modulus before phase."""
        return tuple(rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2 * cmath.pi))
                     for _ in range(n))

    @staticmethod
    def delta_key(a, b) -> tuple:
        return a, b

    def verdicts(self, tol: float, lhs_row, rhs_row) -> list:
        """The residual is |lhs - rhs| relative to the larger of |lhs| and
        |rhs|, and the check passes if it is at most tol (tol >= 0); a pair
        of zeros passes with 0.0, without an abs, and a pair with a NaN side
        fails with NaN."""
        out = []
        for lhs, rhs in zip(lhs_row, rhs_row):
            if not (lhs or rhs):
                out.append((True, "0.0"))
                continue
            size, other = abs(lhs), abs(rhs)
            # the larger, or size if either is NaN: scale is 0.0 only for a
            # zero lhs and an rhs with a NaN part
            scale = other if other > size else size
            residual = abs(lhs - rhs) / scale if scale else float("nan")
            out.append((residual <= tol, _float_json(residual)))
        return out

    magnitude = staticmethod(abs)

    def is_zero(self, value, scale=None) -> bool:
        return abs(value) < 1e-10 * (scale if scale else 1.0)

    @staticmethod
    def scalar_json(x) -> list:
        return [x.real, x.imag]

    value_json = scalar_json


RINGS = {EXACT: ExactContext, COMPLEX: ComplexContext}


def delta(a, b, ctx: QContext, *, powers: dict | None = None):
    """delta(a, b) in the ring of ctx, called afresh on every call (an
    exact value is checked here and expanded on its first read); the
    values of one point are kept by the point's classes.StepMemo. powers
    lends the ring's tables of earlier calls and keeps the new ones (exact:
    argument (num, den) -> _power_rows at ctx.order; complex: q -> q-power
    rows). Every delta value goes through here, where the tracer counts it.

    >>> delta(Fraction(2), Fraction(3), QContext(EXACT, order=2)).coeffs[:2]
    (Fraction(5, 2), Fraction(-35, 6))
    """
    return ctx.delta(a, b, powers)


def _float_json(x: float) -> str:
    """x as json.dumps writes a float: its repr, or NaN, Infinity, -Infinity."""
    if -_INF < x < _INF:
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


# ---------------------------------------------------------------------------
# monomials and evaluation points


def var_names(rank: int) -> tuple[str, ...]:
    return tuple(
        [f"zeta{s}" for s in range(1, rank + 1)]
        + [f"nu{s}" for s in range(1, rank + 1)]
        + ["h"]
    )


@dataclass(frozen=True)
class EvalPoint:
    """Nonzero scalar value per formal variable, constant in q."""

    ctx: QContext
    values: tuple

    @property
    def rank(self):
        return (len(self.values) - 1) // 2

    @property
    def h(self):
        return self.values[-1]


def monomial_map(values, rows) -> tuple:
    """The values at `values` of the monomials with exponent rows `rows`.

    Each is the product of v**e over the row's nonzero exponents, in
    variable order, starting from the first term; a row of zeros gives
    values[0]**0, the backend's one. Every change of variables of
    evaluation points (sector transforms, twists, the duality maps, chart
    points) and every corpus monomial is such a table of rows and goes
    through here. Fraction values give the same value from one integer
    numerator and denominator per monomial, normalized once
    (_fraction_monomials); any other values take the products above, in
    that order, as the complex digests pin them.

    >>> monomial_map((Fraction(2), Fraction(3)), ((0, 1), (2, -1), (0, 0)))
    (Fraction(3, 1), Fraction(4, 3), Fraction(1, 1))
    """
    if values and isinstance(values[0], Fraction):
        return _fraction_monomials(values, rows)
    out = ()  # rows are few, and for one row a growing tuple beats a list
    for row in rows:
        acc = None
        for v, e in zip(values, row):
            if e:
                acc = v**e if acc is None else acc * v**e
        out += (values[0] ** 0 if acc is None else acc,)
    return out


def _fraction_monomials(values, rows) -> tuple:
    """monomial_map for rational values: each monomial's numerator and
    denominator multiplied up in integers and made a Fraction once."""
    pairs = [(v.numerator, v.denominator) for v in values]
    out = ()
    for row in rows:
        num = den = 1
        for (p, q), e in zip(pairs, row):
            if e > 0:
                num *= p**e
                den *= q**e
            elif e:
                num *= q**-e
                den *= p**-e
        out += (Fraction(num, den),)
    return out


def eval_monomial(point: EvalPoint, exps: tuple[int, ...]):
    """The value at the point of the monomial with exponent row exps, one
    exponent per variable; never zero."""
    return monomial_map(point.values, (exps,))[0]


def _sector_map(point: EvalPoint, sector: str, rows) -> EvalPoint:
    """The point with the values of one sector (zeta or nu) replaced by the
    monomials `rows` in that sector's old values; h and the other sector
    are untouched."""
    if sector not in (ZETA, NU):
        raise ValueError(f"unknown sector {sector!r}")
    rank = len(rows)
    start = 0 if sector == ZETA else rank
    old = point.values
    block = monomial_map(old[start:start + rank], rows)
    return EvalPoint(point.ctx, old[:start] + block + old[start + rank:])


def transform_point(point: EvalPoint, s: int, sector: str, rs: RootSystem) -> EvalPoint:
    """Precompose with the simple reflection s on one sector of variables.

    nu-sector: the new value of nu_t is the old value of the monomial
    h^(s(alpha_t^v)); zeta-sector analogously with s(alpha_t). h and the
    other sector are untouched. Involutive per sector.
    """
    if not 1 <= s <= rs.rank:
        raise IndexError(f"simple index {s} out of range 1..{rs.rank}")
    lattice = ROOT if sector == ZETA else COROOT
    rows = tuple(_reflect_coords(rs.cartan, s, _basis(rs.rank, t), lattice)
                 for t in range(1, rs.rank + 1))
    return _sector_map(point, sector, rows)


def twist_point(point: EvalPoint, matrix) -> EvalPoint:
    """zeta-sector precomposition with a full Weyl matrix (column j = image
    of alpha_j), for the test references and the tracer: the library reads
    every root and coroot value by index from a StepMemo and moves no point."""
    return _sector_map(point, ZETA, tuple(zip(*matrix)))


# ---------------------------------------------------------------------------
# point sampling


def sample_point(rank: int, ctx: QContext, rng: Random) -> EvalPoint:
    """One random nonsingular candidate point; callers resample on
    SingularPointError raised downstream."""
    return EvalPoint(ctx, ctx.draw(2 * rank + 1, rng))
