"""Test-side references for delta.

The exact delta here is independent of the divisor-sum q-expansion that
elliptic.ExactContext.delta uses: the branch-free product rearrangement

    (ab-1)/((a-1)(b-1)) *
    prod_{n>=1} (1-q^n ab)(1-q^n/(ab))(1-q^n)^2
              / ((1-q^n a)(1-q^n/a)(1-q^n b)(1-q^n/b)),

each product expanded factor by factor in integers and the two divided
once, and the exact theta'(1) is prod_{n>=1} (1-q^n)^2 expanded the same
way. The complex theta and theta'(1) are the factors of delta's defining
quotient theta(ab) theta'(1) / (theta(a) theta(b)); they draw their powers
q^n from _q_powers, which stops where the complex delta's product does.
"""

import cmath
from fractions import Fraction

from ellschub.elliptic import (
    COMPLEX,
    QContext,
    QSeries,
    SingularPointError,
    ZeroArgumentError,
    _TAIL_EPS,
)


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


def theta(x, ctx: QContext) -> complex:
    """Jacobi theta x^(1/2)(1 - 1/x) prod (1-q^n x)(1-q^n/x), on the
    principal branch of the square root; delta is branch-free."""
    if ctx.backend != COMPLEX:
        raise ValueError("theta is a reference on the complex backend only")
    x = complex(x)
    if x == 0:
        raise ZeroArgumentError("theta(0)")
    val = cmath.sqrt(x) * (1 - 1 / x)
    for qn in _q_powers(ctx.q, max(abs(x), 1 / abs(x))):
        val *= (1 - qn * x) * (1 - qn / x)
    return val


def theta_prime_one(ctx: QContext) -> complex:
    """theta'(1) = prod_{n>=1} (1-q^n)^2 at the complex q of ctx;
    product_theta_prime_one is the exact one."""
    val = 1.0 + 0j
    for qn in _q_powers(ctx.q):
        val *= (1 - qn) ** 2
    return val


def theta_product(xs, order):
    """Integer coefficients P and the int scale c with
    prod_{n=1..order} prod_{x in xs} (1 - x q^n)(1 - q^n/x) = P/c, truncated,
    for nonzero rational (int or Fraction) xs.

    With x = u/v each factor is (w - s q^n + w q^(2n))/w for w = uv and
    s = u^2 + v^2, so P is built in integers and c collects the w."""
    terms = [(x.numerator * x.denominator, x.numerator**2 + x.denominator**2)
             for x in xs]
    coeffs = [1] + [0] * order
    scale = 1
    for n in range(1, order + 1):
        for w, s in terms:
            for k in range(order, n - 1, -1):
                acc = w * coeffs[k] - s * coeffs[k - n]
                if k >= 2 * n:
                    acc += w * coeffs[k - 2 * n]
                coeffs[k] = acc
            if w != 1:
                for k in range(n):
                    coeffs[k] *= w
                scale *= w
    return coeffs, scale


def product_delta(a: Fraction, b: Fraction, order: int) -> QSeries:
    """The rearranged product as one series division, with the scales of both
    integer products and the leading term collected into one Fraction that
    multiplies the numerator; raises as elliptic.delta does, with the same
    message, zero before pole and a before b."""
    for x in (a, b):
        if x == 0:
            raise ZeroArgumentError("delta argument is 0")
        if x == 1:
            raise SingularPointError("delta argument is 1 (pole)")
    ab = a * b
    top, top_scale = theta_product((ab, 1), order)
    bottom, bottom_scale = theta_product((a, b), order)
    scalar = (ab - 1) / ((a - 1) * (b - 1)) * Fraction(bottom_scale, top_scale)
    return (QSeries._new([scalar.numerator * c for c in top], scalar.denominator)
            / QSeries._new(bottom, 1))


def product_theta_prime_one(order: int) -> QSeries:
    coeffs, _ = theta_product((1,), order)
    return QSeries._new(coeffs, 1)
