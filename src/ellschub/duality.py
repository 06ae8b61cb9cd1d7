"""The # substitution and the duality of local elliptic classes.

For the dual pair (G, G^v) with shared simple indices, # sends G-variables
to monomials in G^v-variables:

    zeta_s -> nubar_{s*}^{-1},    nu_s -> zetabar_s^{-1},    h -> h^{-1},

with s* = tau0 s tau0 (a simple reflection). The duality states

    (-1)^(l(tau0)) EE_{tau0 omega^{-1}}(X_{tau0 sigma^{-1}}) evaluated at the
    pulled-back point equals EE_sigma(X^v_omega) at the original point.

Points are always sampled on the G^v side and pulled back, so both sides
are evaluated at consistent coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classes import StepMemo, bs_table
from .elliptic import EvalPoint, Monomial, eval_monomial, monomial_map
from .weyl import WeylGroup


@dataclass(frozen=True)
class DualitySubstitution:
    source: WeylGroup
    target: WeylGroup
    # rows[i]: the exponents of the #-image of source variable i, over the
    # target variables
    rows: tuple[tuple[int, ...], ...]

    def monomial_image(self, m: Monomial) -> Monomial:
        """#-image of a source-group monomial in target-group variables."""
        return Monomial(tuple(sum(e * x for e, x in zip(m.exps, column))
                              for column in zip(*self.rows)))

    def pull_point(self, p: EvalPoint) -> EvalPoint:
        """EvalPoint for the source group from one for the target group."""
        return EvalPoint(p.ctx, monomial_map(p.values, self.rows))


def _variable_rows(images) -> tuple:
    """Exponent rows of the map that sends variable i to variable j to the
    power e, for (j, e) = images[i]; variables indexed as in var_names."""
    n = len(images)
    return tuple(tuple(e if k == j else 0 for k in range(n)) for j, e in images)


def substitution(W: WeylGroup, Wdual: WeylGroup) -> DualitySubstitution:
    r = W.rank
    return DualitySubstitution(W, Wdual, _variable_rows(
        [(r + t - 1, -1) for t in W.star]  # zeta_s -> nubar_{s*}^{-1}
        + [(s, -1) for s in range(r)]  # nu_s -> zetabar_s^{-1}
        + [(2 * r, -1)]))  # h -> h^{-1}


def dual_element_map(W: WeylGroup, Wdual: WeylGroup) -> tuple[int, ...]:
    """Index map W -> W^v through shared reduced words."""
    return tuple(Wdual.from_word(W.reduced_word(w)) for w in range(W.order))


def duality_sign(W: WeylGroup) -> int:
    return -1 if W.length(W.longest) % 2 else 1


def verify_duality(W: WeylGroup, Wdual: WeylGroup, omega: int, sigma: int,
                   point: EvalPoint, flip_sign: bool = False):
    """Residual of the duality for one (omega, sigma) pair; omega, sigma are
    W-indices, point is for the dual group."""
    sub = substitution(W, Wdual)
    pulled = sub.pull_point(point)
    t0 = W.longest
    lhs_table = bs_table(W, W.reduced_word(W.mul(t0, W.inv(sigma))), pulled)
    lhs = lhs_table.values[W.mul(t0, W.inv(omega))]
    dmap = dual_element_map(W, Wdual)
    rhs_table = bs_table(Wdual, W.reduced_word(omega), point)
    rhs = rhs_table.values[dmap[sigma]]
    sign = duality_sign(W) * (-1 if flip_sign else 1)
    return sign * lhs - rhs


def duality_pairs(W: WeylGroup, Wdual: WeylGroup, point: EvalPoint,
                  flip_sign: bool = False) -> dict:
    """(signed lhs, rhs) for all |W|^2 pairs at one dual-side point,
    computed from 2|W| tables."""
    sub = substitution(W, Wdual)
    pulled = sub.pull_point(point)
    dmap = dual_element_map(W, Wdual)
    t0 = W.longest
    source_memo, target_memo = StepMemo(W, pulled), StepMemo(Wdual, point)
    source_tables = [bs_table(W, W.reduced_word(w), pulled, source_memo).values
                     for w in range(W.order)]
    target_tables = [bs_table(Wdual, W.reduced_word(w), point, target_memo).values
                     for w in range(W.order)]
    sign = duality_sign(W) * (-1 if flip_sign else 1)
    flip = [W.mul(t0, W.inv(w)) for w in range(W.order)]  # w -> tau0 w^{-1}
    out = {}
    for omega in range(W.order):
        for sigma in range(W.order):
            lhs = source_tables[flip[sigma]][flip[omega]]
            rhs = target_tables[omega][dmap[sigma]]
            out[(omega, sigma)] = (sign * lhs, rhs)
    return out


def relabel_point(W: WeylGroup, p: EvalPoint) -> EvalPoint:
    """The composed substitution #_{G^v} o #_G: index relabeling by s -> s*."""
    r = W.rank
    rows = _variable_rows([(t - 1, 1) for t in W.star]
                          + [(r + t - 1, 1) for t in W.star] + [(2 * r, 1)])
    return EvalPoint(p.ctx, monomial_map(p.values, rows))


def double_dual_pairs(W: WeylGroup, point: EvalPoint) -> dict:
    """(EE_sigma(X_omega), relabeled conjugate side) for all pairs."""
    t0 = W.longest
    conj = [W.mul(W.mul(t0, w), t0) for w in range(W.order)]
    relabeled = relabel_point(W, point)
    straight_memo, twisted_memo = StepMemo(W, point), StepMemo(W, relabeled)
    straight = [bs_table(W, W.reduced_word(w), point, straight_memo).values
                for w in range(W.order)]
    twisted = [bs_table(W, W.reduced_word(conj[w]), relabeled, twisted_memo).values
               for w in range(W.order)]
    return {
        (omega, sigma): (straight[omega][sigma], twisted[omega][conj[sigma]])
        for omega in range(W.order)
        for sigma in range(W.order)
    }


def invert_variables(p: EvalPoint) -> EvalPoint:
    """The inversion of the dynamical-sector variables; an involution."""
    r = p.rank
    rows = _variable_rows([(i, -1 if r <= i < 2 * r else 1) for i in range(2 * r + 1)])
    return EvalPoint(p.ctx, monomial_map(p.values, rows))


def f_interpretation_point(W: WeylGroup, p: EvalPoint) -> EvalPoint:
    """Dual-group point realizing the inversion of dynamical variables:
    zetabar_s takes the value of nu_s."""
    r = W.rank
    rows = _variable_rows([(r + s, 1) for s in range(r)]
                          + [(s, -1) for s in range(r)] + [(2 * r, 1)])
    return EvalPoint(p.ctx, monomial_map(p.values, rows))


def monomial_pull_check(sub: DualitySubstitution, p: EvalPoint, m: Monomial):
    """eval(pull_point(p), m) minus eval(p, #-image of m); zero when # is
    natural for m."""
    return eval_monomial(sub.pull_point(p), m) - eval_monomial(p, sub.monomial_image(m))
