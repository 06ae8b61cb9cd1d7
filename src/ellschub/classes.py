"""Local elliptic classes of Schubert varieties via two recursions.

Normalized classes EE are computed by

  * the Bott-Samelson recursion (right multiplication in omega):

      EE_sigma(X_{omega s}) =
          delta(sigma(zeta_s), nu_s)/delta(nu_s, h) . s^nu EE_sigma(X_omega)
        + delta(sigma(zeta_s), h)/delta(nu_s, h) . s^nu EE_{sigma s}(X_omega)

  * the R-matrix recursion (left multiplication, with a zeta twist):

      EE_sigma(X_{s omega}) =
          delta(zeta_s, omega^{-1}(nu_s))/delta(omega^{-1}(nu_s^{-1}), h)
              . EE_sigma(X_omega)
        + delta(zeta_s^{-1}, h)/delta(omega^{-1}(nu_s^{-1}), h)
              . s^zeta EE_{s sigma}(X_omega)

with the shared initial condition EE_tau(X_id) = prod over all positive
coroots gamma of delta(h^{-gamma}, h) for tau = id, else 0.

Unnormalized classes E carry the extra delta(nu_s,h)delta(nu_s^{-1},h)
factor in length-decreasing steps and start from E_id(X_id) = 1; the two
are related by EE = c(G, omega) . E with

    c(G, omega) = prod over reflections s with omega(alpha_s) positive
                  of delta(nu_s^{-1}, h).
"""

from __future__ import annotations

from dataclasses import dataclass

from .elliptic import (
    NU,
    EvalPoint,
    SingularPointError,
    delta,
    eval_monomial,
    monomial_map,
    nu_monomial,
    transform_point,
    twist_point,
    zeta_monomial,
)
from .rootsys import _basis
from .weyl import WeylGroup, _matvec


@dataclass(frozen=True)
class ClassTable:
    group: WeylGroup
    word: tuple[int, ...]
    point: EvalPoint
    values: tuple
    kind: str = "EE"  # EE | E | Em
    # support[sigma] is False where the recursion makes values[sigma] zero
    # (outside the Bruhat interval below omega, for a reduced word); None
    # if the table does not track it
    support: tuple[bool, ...] | None = None

    @property
    def omega(self) -> int:
        return self.group.from_word(self.word)

    def zero_flags(self) -> tuple[bool, ...]:
        ctx = self.point.ctx
        scale = max((ctx.magnitude(v) for v in self.values), default=0.0)
        return tuple(ctx.is_zero(v, scale) for v in self.values)


def _checked_div(num, den):
    try:
        return num / den
    except ZeroDivisionError as err:
        raise SingularPointError(str(err)) from err


def _delta_at(point, m_a, m_b):
    return delta(eval_monomial(point, m_a), eval_monomial(point, m_b), point.ctx)


def _delta_h(point, m_a):
    return delta(eval_monomial(point, m_a), point.h, point.ctx)


def _coroot_product(point, coroots):
    """prod over the coroots gamma of delta(h^{-gamma}, h), in their order."""
    acc = point.ctx.one()
    for gamma in coroots:
        acc = acc * _delta_h(point, nu_monomial(point.rank, gamma).inverse())
    return acc


def initial_table(W: WeylGroup, point: EvalPoint) -> ClassTable:
    """EE table for omega = id: the full delta product at id, 0 elsewhere."""
    values = [point.ctx.zero()] * W.order
    values[W.identity] = _coroot_product(point, W.rs.positive_coroots)
    return ClassTable(W, (), point, tuple(values), support=_identity_support(W))


def _identity_support(W: WeylGroup) -> tuple[bool, ...]:
    return tuple(sigma == W.identity for sigma in range(W.order))


class StepMemo:
    """The step coefficients that the Bott-Samelson tables of one group at
    one point share. Every step of such a table lives on the point's chain
    of nu-transforms, which keeps the zeta values, h and the context, so
    the coefficients of a step depend only on the value of the root
    sigma(alpha_s), fixed by its index r in W.roots, and on the value of
    nu_s. They are kept under (nu_s value, r): `normalized` holds the pairs
    of bs_step, divided by delta(nu_s, h), and `unnormalized` the undivided
    pairs of unnormalized_table. Make one with the point, pass it to each
    table there, and drop it with the point."""

    __slots__ = ("group", "fixed", "roots", "normalized", "unnormalized")

    def __init__(self, W: WeylGroup, point: EvalPoint):
        self.group = W
        self.fixed = _fixed_part(W, point)
        # the value of the zeta monomial of each root
        self.roots = monomial_map(point.values, [
            zeta_monomial(W.rank, root).exps for root in W.roots])
        self.normalized: dict = {}
        self.unnormalized: dict = {}

    def check(self, W: WeylGroup, point: EvalPoint) -> None:
        if W is not self.group or _fixed_part(W, point) != self.fixed:
            raise ValueError("step memo made for another group, zeta sector, h or context")

    def coefficients(self, kept: dict, s: int, nu_val, coefficients) -> list:
        """[r] -> coefficients(value of root r) for every root r of a step
        by s with nu_s value nu_val, worked out once and kept in `kept`.

        Missing pairs are computed in the order the roots first appear over
        sigma, as a per-sigma loop meets them, and a kept pair raised
        nothing when it was computed; so a singular point raises the same
        error, also for a root whose entries are all outside the support."""
        row = kept.get(nu_val)
        if row is None:
            row = kept[nu_val] = [None] * len(self.roots)
        for r in self.group.step_roots[s - 1]:
            if row[r] is None:
                row[r] = coefficients(self.roots[r])
        return row


def _fixed_part(W: WeylGroup, point: EvalPoint):
    """What a nu-transform keeps of the point: context, zeta values and h."""
    return point.ctx, point.values[:W.rank], point.h


def bs_step(W: WeylGroup, table: ClassTable, s: int, outer_point: EvalPoint,
            memo: StepMemo | None = None) -> ClassTable:
    """One Bott-Samelson step; table must live at the nu-transform of
    outer_point by s. Both coefficients are divided by delta(nu_s, h)
    before they are combined. memo, if given, was made for W at a point of
    outer_point's chain."""
    if memo is None:
        memo = StepMemo(W, outer_point)
    ctx, h = outer_point.ctx, outer_point.h
    nu_val = eval_monomial(outer_point, nu_monomial(W.rank, _basis(W.rank, s)))
    den = delta(nu_val, h, ctx)
    coeffs = memo.coefficients(memo.normalized, s, nu_val, lambda sigma_zeta: (
        _checked_div(delta(sigma_zeta, nu_val, ctx), den),
        _checked_div(delta(sigma_zeta, h, ctx), den),
    ))
    support = table.support or (True,) * W.order
    values, support = _step_values(W, table.values, support, s, coeffs, ctx.zero())
    return ClassTable(W, table.word + (s,), outer_point, tuple(values), table.kind,
                      support)


def _step_values(W: WeylGroup, values, support, s: int, coeffs, zero):
    """(new values, new support) of a step by s, in which the new value is
    c_keep * values[sigma] + c_mix * values[sigma s] with (c_keep, c_mix) =
    coeffs[r] for the root r = sigma(alpha_s).

    An entry outside `support` is zero. sigma is in the new support iff
    sigma or sigma s was in the old one, for any word; only those entries
    are computed, from their terms inside the old support, and every other
    entry is `zero`."""
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
    return out, tuple(grown)


def _point_chain(W: WeylGroup, word, point):
    """points[j] is where the table for word[:j] lives."""
    points = [point]
    for s in reversed(word):
        points.append(transform_point(points[-1], s, NU, W.rs))
    points.reverse()
    return points


def _memo_for(W: WeylGroup, point: EvalPoint, memo: StepMemo | None) -> StepMemo:
    if memo is None:
        return StepMemo(W, point)
    memo.check(W, point)
    return memo


def bs_table(W: WeylGroup, word, point: EvalPoint,
             memo: StepMemo | None = None) -> ClassTable:
    """EE table for omega = product of word (need not be reduced). memo, if
    given, was made for W at a point with point's zeta values, h and
    context; the tables at one point share their step coefficients
    through it."""
    word = tuple(word)
    memo = _memo_for(W, point, memo)
    points = _point_chain(W, word, point)
    table = initial_table(W, points[0])
    for j, s in enumerate(word):
        table = bs_step(W, table, s, points[j + 1], memo)
    return table


def unnormalized_table(W: WeylGroup, word, point: EvalPoint,
                       memo: StepMemo | None = None) -> ClassTable:
    """E table (no normalization); length-decreasing steps divide the
    combined value by delta(nu_s,h) delta(nu_s^{-1},h). memo as for
    bs_table."""
    word = tuple(word)
    memo = _memo_for(W, point, memo)
    rank = W.rank
    ctx = point.ctx
    zero = ctx.zero()
    points = _point_chain(W, word, point)
    values = [zero] * W.order
    values[W.identity] = ctx.one()
    support = _identity_support(W)
    omega = W.identity
    for j, s in enumerate(word):
        outer = points[j + 1]
        nu_s = nu_monomial(rank, _basis(rank, s))
        going_up = W.length(W.rmult(omega, s)) > W.length(omega)
        if not going_up:
            down = _delta_h(outer, nu_s) * _delta_h(outer, nu_s.inverse())
        nu_val = eval_monomial(outer, nu_s)
        coeffs = memo.coefficients(memo.unnormalized, s, nu_val, lambda sigma_zeta: (
            delta(sigma_zeta, nu_val, ctx), delta(sigma_zeta, outer.h, ctx)))
        values, support = _step_values(W, values, support, s, coeffs, zero)
        if not going_up:
            # the identity is always in the support, so a singular `down`
            # still raises
            values = [_checked_div(v, down) if inside else v
                      for v, inside in zip(values, support)]
        omega = W.rmult(omega, s)
    return ClassTable(W, word, point, tuple(values), "E", support)


def em_table(W: WeylGroup, word, point: EvalPoint) -> ClassTable:
    """Em normalization: EE divided by the full delta product over Pi."""
    table = bs_table(W, word, point)
    full = _coroot_product(point, W.rs.positive_coroots)
    values = tuple(_checked_div(v, full) for v in table.values)
    return ClassTable(W, table.word, point, values, "Em", table.support)


# ---------------------------------------------------------------------------
# R-matrix recursion


def rmatrix_table(W: WeylGroup, word, point: EvalPoint) -> ClassTable:
    """EE table for omega = product of word via the memoized R-matrix
    recursion; indexing agrees with bs_table on the same word."""
    word = tuple(word)
    memo: dict = {}
    coeffs: dict = {}
    twists: dict = {W.identity: point}
    values = tuple(
        _rmatrix_eval(W, word, sigma, W.identity, point, memo, coeffs, twists)
        for sigma in range(W.order)
    )
    return ClassTable(W, word, point, values)


def rmatrix_eval(W: WeylGroup, word, sigma: int, point: EvalPoint):
    """Single entry EE_sigma(X_omega) for omega = product of word."""
    twists = {W.identity: point}
    return _rmatrix_eval(W, tuple(word), sigma, W.identity, point, {}, {}, twists)


def _twisted(W, twists, point, twist):
    cached = twists.get(twist)
    if cached is None:
        cached = twist_point(point, W.matrices[twist], W.rs)
        twists[twist] = cached
    return cached


def _rmatrix_eval(W, word, sigma, twist, point, memo, coeffs, twists):
    depth = len(word)
    key = (depth, sigma, twist)
    hit = memo.get(key)
    if hit is not None:
        return hit
    ctx = point.ctx
    if depth == 0:
        if sigma == W.identity:
            out = _coroot_product(_twisted(W, twists, point, twist),
                                  W.rs.positive_coroots)
        else:
            out = ctx.zero()
        memo[key] = out
        return out
    # word = (s, rest): omega = s . product(rest), built by left multiplication
    s, rest = word[0], word[1:]
    # gamma depends only on (product(rest), s), so the coefficients only on
    # (depth, twist)
    c = coeffs.get((depth, twist))
    if c is None:
        rank = W.rank
        prev = W.from_word(rest)
        p = _twisted(W, twists, point, twist)
        gamma = W.coroots[W.coroot_index[W.inv(prev)][s - 1]]
        den = _delta_h(p, nu_monomial(rank, gamma).inverse())
        zeta_s = zeta_monomial(rank, _basis(rank, s))
        c = coeffs[(depth, twist)] = (
            _checked_div(_delta_at(p, zeta_s, nu_monomial(rank, gamma)), den),
            _checked_div(_delta_h(p, zeta_s.inverse()), den),
        )
    keep = _rmatrix_eval(W, rest, sigma, twist, point, memo, coeffs, twists)
    mixed = _rmatrix_eval(
        W, rest, W.lmult(s, sigma), W.rmult(twist, s), point, memo, coeffs, twists
    )
    out = c[0] * keep + c[1] * mixed
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# normalization


def tangent_weights(W: WeylGroup, omega: int) -> frozenset:
    """T(G, omega) = Phi_+ intersect omega(Phi_-), as root coordinates."""
    inv = W.inv(omega)
    out = set()
    for beta in W.rs.positive_roots:
        image = _matvec(W.matrices[inv], beta)
        if all(c <= 0 for c in image):
            out.add(beta)
    return frozenset(out)


def normalization_index_set(W: WeylGroup, omega: int) -> frozenset:
    """F(G, omega) = Phi^v_+ intersect omega^{-1}(Phi^v_+), coroot coords."""
    out = set()
    for gamma in W.rs.positive_coroots:
        image = _matvec(W.coroot_matrices[omega], gamma)
        if all(c >= 0 for c in image):
            out.add(gamma)
    return frozenset(out)


def normalization_factor(W: WeylGroup, omega: int, point: EvalPoint):
    """c(G, omega) at the point."""
    return _coroot_product(point, sorted(normalization_index_set(W, omega)))


def c_recursion_right_sides(W, omega, s, point):
    """(c(G, omega s), nu-transformed recursion rhs)."""
    rank = W.rank
    lhs = normalization_factor(W, W.rmult(omega, s), point)
    shifted = normalization_factor(W, omega, transform_point(point, s, NU, W.rs))
    nu_s = nu_monomial(rank, _basis(rank, s))
    if W.length(W.rmult(omega, s)) > W.length(omega):
        rhs = _checked_div(shifted, _delta_h(point, nu_s))
    else:
        rhs = _delta_h(point, nu_s.inverse()) * shifted
    return lhs, rhs


def c_recursion_right_residual(W, omega, s, point):
    lhs, rhs = c_recursion_right_sides(W, omega, s, point)
    return lhs - rhs


def c_recursion_left_sides(W, omega, s, point):
    """(c(G, s omega), recursion rhs), left-multiplication form."""
    rank = W.rank
    lhs = normalization_factor(W, W.lmult(s, omega), point)
    base = normalization_factor(W, omega, point)
    gamma = W.coroots[W.coroot_index[W.inv(omega)][s - 1]]
    if W.length(W.lmult(s, omega)) > W.length(omega):
        rhs = _checked_div(base, _delta_h(point, nu_monomial(rank, gamma).inverse()))
    else:
        rhs = _delta_h(point, nu_monomial(rank, gamma)) * base
    return lhs, rhs


def c_recursion_left_residual(W, omega, s, point):
    lhs, rhs = c_recursion_left_sides(W, omega, s, point)
    return lhs - rhs


def diagonal_closed_form(W: WeylGroup, sigma: int, point: EvalPoint):
    """E_sigma(X_sigma) = prod over reflections with alpha_s in sigma(Phi_-)
    of delta(e^(alpha_s), h)."""
    rank = W.rank
    inv = W.inv(sigma)
    acc = point.ctx.one()
    for beta in W.rs.positive_roots:
        if all(c <= 0 for c in _matvec(W.matrices[inv], beta)):
            acc = acc * _delta_h(point, zeta_monomial(rank, beta).inverse())
    return acc
