"""Scalar backends, the branch-free delta, and evaluation points.

Two backends share one interface:

  * complex: ordinary complex floating point, infinite products truncated
    once the tail factors differ from 1 by less than 1e-18;
  * exact: truncated q-series with rational coefficients (integer
    numerators over one common denominator), all arithmetic exact modulo
    q^(N+1).

The basic building block is

    delta(a, b) = theta(ab) theta'(1) / (theta(a) theta(b)),

in which the half-integer powers of theta cancel. The exact backend takes
it from its divisor-sum q-expansion (Kronecker's formula, as stated in
Zagier, "Periods of modular forms and Jacobi theta functions", Invent.
Math. 104 (1991), section 3)

    (ab-1)/((a-1)(b-1)) + sum_{m,k>=1} (a^-m b^-k - a^m b^k) q^(mk),

whose coefficient of q^n is a sum over the divisors m of n: no division,
and O(N log N) terms below q^(N+1). The complex backend keeps the
branch-free product rearrangement

    (ab-1)/((a-1)(b-1)) *
    prod_{n>=1} (1-q^n ab)(1-q^n/(ab))(1-q^n)^2
              / ((1-q^n a)(1-q^n/a)(1-q^n b)(1-q^n/b)),

since its printed digits depend on the order of its float operations.
The tests check delta against its defining quotient with theta and
theta'(1), which live in tests/elliptic_reference.py. eval_monomial,
transform_point and twist_point stay here only because the benchmark
tracer wraps them by name; the library reads every root and coroot value
by index from a StepMemo.

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


class ZeroArgumentError(ValueError):
    """delta received a zero argument."""


class SingularPointError(ArithmeticError):
    """A delta argument hit a pole (value 1, or too close to one in the
    complex backend), or a recursion coefficient is not invertible.
    Callers are expected to resample the point."""


@dataclass(frozen=True)
class QContext:
    backend: str
    order: int = 8
    q: complex = 0.3

    def __post_init__(self):
        if self.backend not in (EXACT, COMPLEX):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.order < 1:
            raise ValueError("truncation order must be >= 1")
        if self.order > sys.maxsize:  # a series holds order + 1 coefficients
            raise ValueError(f"truncation order must be at most {sys.maxsize}")
        if self.backend == COMPLEX and not abs(self.q) < 1:
            raise ValueError("complex backend needs |q| < 1")

    def one(self):
        if self.backend == EXACT:
            return QSeries.constant(Fraction(1), self.order)
        return complex(1)

    def zero(self):
        if self.backend == EXACT:
            return QSeries.constant(Fraction(0), self.order)
        return complex(0)

    def is_zero(self, value, scale=None) -> bool:
        if self.backend == EXACT:
            return not any(value.num)
        tol = 1e-10 * (scale if scale else 1.0)
        return abs(value) < tol

    def magnitude(self, value) -> float:
        if self.backend == EXACT:
            return max(abs(n) for n in value.num) / value.den
        return abs(value)


class QSeries:
    """Truncated q-series with exact rational coefficients.

    The coefficients are stored as integer numerators ``num`` over one
    positive denominator ``den``, in lowest terms (gcd(den, *num) == 1; the
    zero series has den == 1), so every rational series has exactly one
    representation. Each operation does plain integer arithmetic on the
    numerators and one gcd reduction at the end. Division multiplies by the
    divisor's reciprocal, which a series computes on the first division by
    it and then keeps.
    """

    __slots__ = ("num", "den", "_inv")

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
            if len(other.num) != len(self.num):
                raise ValueError("mixed truncation orders")
            return other
        if isinstance(other, (int, Fraction)):
            return QSeries.constant(other, len(self.num) - 1)
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
        return QSeries._new(_convolve(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        inv = other._reciprocal()
        return QSeries._new(_convolve(self.num, inv.num), self.den * inv.den)

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


def _convolve(a, b):
    """The integer coefficients of a*b, truncated to len(a) terms."""
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j in range(n - i):
                out[i + j] += ai * b[j]
    return out


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


def _q_powers(q, big=1.0):
    """q^n for n = 1, 2, ... while |q^n| * big >= 1e-18: the factors of a
    complex product kept until its tail differs from 1 by less than 1e-18,
    with big the largest modulus among the arguments and their inverses.
    ValueError if 10000 factors do not reach that bound (|q| above ~0.996)."""
    qn = 1.0 + 0j
    for _ in range(10_000):
        qn *= q
        if abs(qn) * big < _TAIL_EPS:
            return
        yield qn
    raise ValueError(f"q = {q:g}: 10000 factors leave a product's tail above 1e-18")


def _delta_checked_args(a, b, exact):
    for x in (a, b):
        if x == 0:
            raise ZeroArgumentError("delta argument is 0")
        if exact:
            if x == 1:
                raise SingularPointError("delta argument is 1 (pole)")
        else:
            if abs(x - 1) < 1e-3:
                raise SingularPointError("delta argument within 1e-3 of 1 (pole)")


def _delta_exact(a: Fraction, b: Fraction, ctx: QContext) -> QSeries:
    """delta(a, b) from its divisor-sum q-expansion (module text), in
    integers over the scale (u-v)(s-t)(uvst)^N for a = u/v, b = s/t and
    N = ctx.order: a sum of products per power of q and one reduction."""
    _delta_checked_args(a, b, exact=True)
    n = ctx.order
    u, v, s, t = a.numerator, a.denominator, b.numerator, b.denominator
    down_a, up_a = _power_rows(u, v, n)
    down_b, up_b = _power_rows(s, t, n)
    coeffs = [0] * (n + 1)
    for m in range(1, n + 1):
        dm, um = down_a[m], up_a[m]
        for k, mk in enumerate(range(m, n + 1, m), 1):
            coeffs[mk] += dm * down_b[k] - um * up_b[k]
    poles = (u - v) * (s - t)
    scale = up_a[0] * up_b[0]
    coeffs = [poles * c for c in coeffs]
    coeffs[0] = (u * s - v * t) * scale
    return QSeries._new(coeffs, poles * scale)


def _delta_complex(a: complex, b: complex, ctx: QContext) -> complex:
    _delta_checked_args(a, b, exact=False)
    ab = a * b
    val = (ab - 1) / ((a - 1) * (b - 1))
    mags = [abs(ab), 1 / abs(ab), abs(a), 1 / abs(a), abs(b), 1 / abs(b)]
    for qn in _q_powers(ctx.q, max(mags + [1.0])):
        den = (1 - qn * a) * (1 - qn / a) * (1 - qn * b) * (1 - qn / b)
        if abs(den) < 1e-6:
            raise SingularPointError("delta argument hits a q-shifted pole")
        val *= (1 - qn * ab) * (1 - qn / ab) * (1 - qn) ** 2 / den
    if not (cmath.isfinite(val) and abs(val) >= sys.float_info.min):
        raise SingularPointError("delta value outside the range of doubles")
    return val


def delta(a, b, ctx: QContext):
    """delta(a, b) for scalar arguments, computed afresh on every call; the
    values of one point are kept by the point's classes.StepMemo.

    >>> delta(Fraction(2), Fraction(3), QContext(EXACT, order=2)).coeffs[:2]
    (Fraction(5, 2), Fraction(-35, 6))
    """
    if ctx.backend == EXACT:
        return _delta_exact(Fraction(a), Fraction(b), ctx)
    return _delta_complex(complex(a), complex(b), ctx)


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
    through here.

    >>> monomial_map((Fraction(2), Fraction(3)), ((0, 1), (2, -1), (0, 0)))
    (Fraction(3, 1), Fraction(4, 3), Fraction(1, 1))
    """
    out = ()  # rows are few, and for one row a growing tuple beats a list
    for row in rows:
        acc = None
        for v, e in zip(values, row):
            if e:
                acc = v**e if acc is None else acc * v**e
        out += (values[0] ** 0 if acc is None else acc,)
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
    return EvalPoint(ctx, sample_values(2 * rank + 1, ctx, rng))


def sample_values(n: int, ctx: QContext, rng: Random) -> tuple:
    """n random values for the backend of ctx, drawn one after the other:
    rationals u/v with 0 < |u|, v < 100 and u != v (exact), or complex
    numbers with modulus in [1/2, 2] (complex)."""
    draw = _random_fraction if ctx.backend == EXACT else _random_annulus
    return tuple(draw(rng) for _ in range(n))


def _random_fraction(rng: Random) -> Fraction:
    while True:
        num = rng.randint(1, 99) * rng.choice((1, -1))
        den = rng.randint(1, 99)
        if num != den:  # value 1 is singular for every delta against h
            return Fraction(num, den)


def _random_annulus(rng: Random) -> complex:
    r = rng.uniform(0.5, 2.0)
    phi = rng.uniform(0.0, 2 * cmath.pi)
    return r * cmath.exp(1j * phi)
