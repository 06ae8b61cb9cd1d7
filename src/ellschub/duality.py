"""The # substitution and the duality of local elliptic classes.

G and G^v share simple indices and, through weyl.dual_group, element
indices: an element of W and of W^v with the same index has the same
reduced words. # sends G-variables to monomials in G^v-variables:

    zeta_s -> nubar_{s*}^{-1},    nu_s -> zetabar_s^{-1},    h -> h^{-1},

with s* = tau0 s tau0 (a simple reflection). The duality states

    (-1)^(l(tau0)) EE_{tau0 omega^{-1}}(X_{tau0 sigma^{-1}}) evaluated at the
    pulled-back point equals EE_sigma(X^v_omega) at the original point.

Points are always sampled on the G^v side and pulled back, so both sides
are evaluated at consistent coordinates.
"""

from __future__ import annotations

from .classes import StepMemo, bs_table, prepare_point
from .elliptic import EvalPoint, monomial_map
from .weyl import WeylGroup


def _variable_rows(images) -> tuple:
    """Exponent rows of the map that sends variable i to variable j to the
    power e, for (j, e) = images[i]; variables indexed as in var_names."""
    n = len(images)
    return tuple(tuple(e if k == j else 0 for k in range(n)) for j, e in images)


def substitution(W: WeylGroup) -> tuple:
    """The # map of W to the variables of its Langlands dual: row i holds the
    exponents of the #-image of source variable i over the target variables."""
    r = W.rank
    return _variable_rows(
        [(r + t - 1, -1) for t in W.star]  # zeta_s -> nubar_{s*}^{-1}
        + [(s, -1) for s in range(r)]  # nu_s -> zetabar_s^{-1}
        + [(2 * r, -1)])  # h -> h^{-1}


def pull_point(W: WeylGroup, p: EvalPoint) -> EvalPoint:
    """The point of W that # pulls back from the dual-group point p."""
    return EvalPoint(p.ctx, monomial_map(p.values, substitution(W)))


def duality_sign(W: WeylGroup) -> int:
    return -1 if W.length(W.longest) % 2 else 1


def duality_pairs(W: WeylGroup, Wdual: WeylGroup, point: EvalPoint,
                  flip_sign: bool = False) -> tuple:
    """(lhs_rows, rhs_rows) at one dual-side point, from 2|W| tables; Wdual
    is dual_group(W). The pair (omega, sigma) has the signed lhs
    lhs_rows[omega][sigma] and the rhs rhs_rows[omega][sigma].

    Every delta value of the point is called and checked here
    (prepare_point), so a singular point raises here. The rows are
    iterators, built as they are read, and raise nothing: rhs_rows makes one
    dual table per row, and lhs_rows makes the |W| source tables at its
    first row and keeps them, as their columns are its rows."""
    t0 = W.longest
    source_memo, target_memo = StepMemo(W, pull_point(W, point)), StepMemo(Wdual, point)
    prepare_point(source_memo)
    prepare_point(target_memo)
    sign = duality_sign(W) * (-1 if flip_sign else 1)
    flip = [W.mul(t0, W.inv(w)) for w in range(W.order)]  # w -> tau0 w^{-1}
    rhs_rows = (bs_table(target_memo, W.reduced_word(w)) for w in range(W.order))
    return _lhs_rows(source_memo, flip, sign), rhs_rows


def _lhs_rows(memo: StepMemo, flip: list, sign: int):
    """The signed rows sigma -> source table of flip[sigma] at flip[omega],
    by omega, from the tables of memo's group made at the first row."""
    W = memo.group
    tables = [bs_table(memo, W.reduced_word(w)) for w in range(W.order)]
    columns = [tables[f] for f in flip]  # sigma -> table of tau0 sigma^{-1}
    for f_omega in flip:
        row = [col[f_omega] for col in columns]
        yield row if sign > 0 else [-v for v in row]


def relabel_point(W: WeylGroup, p: EvalPoint) -> EvalPoint:
    """The composed substitution #_{G^v} o #_G: index relabeling by s -> s*."""
    r = W.rank
    rows = _variable_rows([(t - 1, 1) for t in W.star]
                          + [(r + t - 1, 1) for t in W.star] + [(2 * r, 1)])
    return EvalPoint(p.ctx, monomial_map(p.values, rows))


def double_dual_pairs(W: WeylGroup, point: EvalPoint) -> tuple:
    """(straight, twisted_rows): EE_sigma(X_omega) is straight[omega][sigma],
    and twisted_rows[omega][sigma] is its relabeled conjugate side. Every
    delta value is called and checked here, as in duality_pairs; the rows
    are iterators that make one table each as they are read."""
    t0 = W.longest
    conj = [W.mul(W.mul(t0, w), t0) for w in range(W.order)]
    straight_memo = StepMemo(W, point)
    twisted_memo = StepMemo(W, relabel_point(W, point), straight_memo)
    prepare_point(straight_memo)
    prepare_point(twisted_memo, steps=W.word_steps(conj))
    straight = (bs_table(straight_memo, W.reduced_word(w)) for w in range(W.order))
    twisted = (bs_table(twisted_memo, W.reduced_word(conj[w])) for w in range(W.order))
    return straight, (tuple(row[c] for c in conj) for row in twisted)


def f_interpretation_point(W: WeylGroup, p: EvalPoint) -> EvalPoint:
    """Dual-group point realizing the inversion of dynamical variables:
    zetabar_s takes the value of nu_s."""
    r = W.rank
    rows = _variable_rows([(r + s, 1) for s in range(r)]
                          + [(s, -1) for s in range(r)] + [(2 * r, 1)])
    return EvalPoint(p.ctx, monomial_map(p.values, rows))

