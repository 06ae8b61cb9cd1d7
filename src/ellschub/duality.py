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

from .classes import bs_table
from .elliptic import EvalPoint, Monomial, eval_monomial
from .weyl import WeylGroup


@dataclass(frozen=True)
class DualitySubstitution:
    source: WeylGroup
    target: WeylGroup
    star: tuple[int, ...]  # star[s-1] = s*

    def monomial_image(self, m: Monomial) -> Monomial:
        """#-image of a source-group monomial in target-group variables."""
        rank = self.source.rank
        exps = [0] * (2 * rank + 1)
        for s in range(1, rank + 1):
            exps[rank + self.star[s - 1] - 1] -= m.exps[s - 1]  # zeta_s -> nubar_{s*}^{-1}
            exps[s - 1] -= m.exps[rank + s - 1]  # nu_s -> zetabar_s^{-1}
        exps[2 * rank] = -m.exps[2 * rank]
        return Monomial(tuple(exps))

    def pull_point(self, p: EvalPoint) -> EvalPoint:
        """EvalPoint for the source group from one for the target group."""
        rank = self.source.rank
        vals = list(p.values)
        out = [None] * (2 * rank + 1)
        for s in range(1, rank + 1):
            out[s - 1] = vals[rank + self.star[s - 1] - 1] ** -1
            out[rank + s - 1] = vals[s - 1] ** -1
        out[2 * rank] = vals[2 * rank] ** -1
        return EvalPoint(p.ctx, tuple(out))


def substitution(W: WeylGroup, Wdual: WeylGroup) -> DualitySubstitution:
    return DualitySubstitution(W, Wdual, W.star)


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
    source_tables = [
        bs_table(W, W.reduced_word(w), pulled).values for w in range(W.order)
    ]
    target_tables = [
        bs_table(Wdual, W.reduced_word(w), point).values for w in range(W.order)
    ]
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
    rank = W.rank
    vals = list(p.values)
    out = list(vals)
    for s in range(1, rank + 1):
        out[s - 1] = vals[W.star[s - 1] - 1]
        out[rank + s - 1] = vals[rank + W.star[s - 1] - 1]
    return EvalPoint(p.ctx, tuple(out))


def double_dual_pairs(W: WeylGroup, point: EvalPoint) -> dict:
    """(EE_sigma(X_omega), relabeled conjugate side) for all pairs."""
    t0 = W.longest
    conj = [W.mul(W.mul(t0, w), t0) for w in range(W.order)]
    relabeled = relabel_point(W, point)
    straight = [bs_table(W, W.reduced_word(w), point).values for w in range(W.order)]
    twisted = [
        bs_table(W, W.reduced_word(conj[w]), relabeled).values for w in range(W.order)
    ]
    return {
        (omega, sigma): (straight[omega][sigma], twisted[omega][conj[sigma]])
        for omega in range(W.order)
        for sigma in range(W.order)
    }


def invert_variables(p: EvalPoint) -> EvalPoint:
    """The inversion of the dynamical-sector variables; an involution."""
    rank = p.rank
    vals = list(p.values)
    for s in range(rank, 2 * rank):
        vals[s] = vals[s] ** -1
    return EvalPoint(p.ctx, tuple(vals))


def f_interpretation_point(W: WeylGroup, p: EvalPoint) -> EvalPoint:
    """Dual-group point realizing the inversion of dynamical variables:
    zetabar_s takes the value of nu_s."""
    rank = W.rank
    vals = list(p.values)
    out = vals[rank:2 * rank] + [v ** -1 for v in vals[0:rank]] + [vals[2 * rank]]
    return EvalPoint(p.ctx, tuple(out))


def monomial_pull_check(sub: DualitySubstitution, p: EvalPoint, m: Monomial):
    """eval(pull_point(p), m) minus eval(p, #-image of m); zero when # is
    natural for m."""
    return eval_monomial(sub.pull_point(p), m) - eval_monomial(p, sub.monomial_image(m))
