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

A Bott-Samelson step mixes only sigma and sigma s, so it is a 2x2 block on
each right coset {sigma, sigma s}. A step makes the cosets that meet its
table's support, each by one call of a coset kernel of the context's
ring (QContext.pair or single), which returns both new entries.

Unnormalized classes E take the same walk from E_id(X_id) = 1 along a
reduced word of omega, so every step raises the length, with the two
Bott-Samelson coefficients not divided by delta(nu_s, h); the two are
related by EE = c(G, omega) . E with

    c(G, omega) = prod over reflections s with omega(alpha_s) positive
                  of delta(nu_s^{-1}, h).
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import mul

from .elliptic import EvalPoint, delta, monomial_map
from .weyl import WeylGroup


def _negated(W: WeylGroup, i: int) -> int:
    """The index of -roots[i], and of -coroots[i]: the positive ones come first."""
    half = len(W.roots) // 2
    return i + half if i < half else i - half


def initial_table(memo: StepMemo, u: int = 0) -> tuple:
    """EE values for omega = id at memo's point, by sigma: the full delta
    product at id, 0 elsewhere. Each positive coroot gamma is read as
    u(gamma), as the first step of a word with product u^-1 needs (the
    default 0 is W.identity)."""
    W = memo.group
    values = [memo.point.ctx.zero()] * W.order
    values[W.identity] = _h_product(memo, (  # u(-gamma) for the -gamma
        memo.coroots[W.act(u, i)] for i in range(len(W.coroots) // 2, len(W.coroots))))
    return tuple(values)


def _h_product(memo: StepMemo, values):
    """prod delta(x, h) over the values x, in their order, from memo."""
    h = memo.point.h
    return memo.delta_product((x, h) for x in values)


class StepMemo:
    """What the classes of one group at one point share, and the only keeper
    of delta values: every table and normalization factor takes the memo as
    its only handle on the group (`group`) and the point (`point`), and the
    memo is dropped with the point. `deltas` holds delta(a, b) under
    ctx.delta_key(a, b), read through `delta`, and `powers` the ring's delta
    tables (exact power rows per argument, complex q-powers), made once per
    point; a memo made with `deltas_of`, a memo of the same context, shares
    both dicts.

    `roots` and `coroots` hold the point's values of e^(-beta) =
    prod zeta_t^(beta_t) and h^gamma = prod nu_t^(gamma_t), by index into
    W.roots and W.coroots. A step reads nu_s as coroot g and sigma(alpha_s),
    or the twist's image of alpha_s, as root r, so its coefficient pairs are
    kept in rows [g][r], each made once, whole (`coefficients`): `normalized`
    those of bs_step (bs_row), divided by delta(nu_s, h), `unnormalized` the
    undivided ones of unnormalized_table, and `rmatrix` those of
    rmatrix_table (rmatrix_row), which read roots r and -r. A campaign fills
    the memo before it builds any table (prepare_point), so that its tables
    only read it."""

    __slots__ = ("group", "point", "roots", "coroots", "normalized", "unnormalized",
                 "rmatrix", "deltas", "powers")

    def __init__(self, W: WeylGroup, point: EvalPoint, deltas_of: StepMemo | None = None):
        self.group = W
        self.point = point
        rank = point.rank
        self.roots = monomial_map(point.values[:rank], W.roots)
        self.coroots = monomial_map(point.values[rank:2 * rank], W.coroots)
        self.normalized: list = [None] * len(W.coroots)
        self.unnormalized: list = [None] * len(W.coroots)
        self.rmatrix: list = [None] * len(W.coroots)
        if deltas_of is not None and deltas_of.point.ctx != point.ctx:
            raise ValueError("delta values shared across contexts")
        self.deltas: dict = {} if deltas_of is None else deltas_of.deltas
        self.powers: dict = {} if deltas_of is None else deltas_of.powers

    def delta(self, a, b):
        """delta(a, b) in the memo's context, computed once per `deltas`."""
        key = self.point.ctx.delta_key(a, b)
        out = self.deltas.get(key)
        if out is None:
            out = self.deltas[key] = delta(a, b, self.point.ctx, powers=self.powers)
        return out

    def delta_product(self, pairs):
        """prod delta(a, b) over the pairs (a, b), in their order, starting
        from the first factor; the empty product is the context's one."""
        factors = [self.delta(a, b) for a, b in pairs]
        return reduce(mul, factors) if factors else self.point.ctx.one()

    def coefficients(self, kept: list, s: int, g: int, coefficients) -> list:
        """[r] -> coefficients(r) for every root r of a step by s that reads
        nu_s as coroot g, made whole once and kept in kept[g]: those roots are
        the W-orbit of roots[g], whatever s. They are computed in the order
        they first appear over sigma, as a per-sigma loop meets them, so a
        singular point raises the same error, also for a root whose entries
        are all outside the support."""
        row = kept[g]
        if row is None:
            row = [None] * len(self.roots)
            for r in self.group.step_roots[s - 1]:
                row[r] = coefficients(r)
            kept[g] = row
        return row


def bs_row(memo: StepMemo, s: int, g: int) -> list:
    """The coefficient row of a Bott-Samelson step by s that reads nu_s as
    the value of coroot g, kept in memo.normalized: by root r, the pair
    delta(e^(-r), nu_s) and delta(e^(-r), h), both divided by
    delta(nu_s, h)."""
    nu_val, h = memo.coroots[g], memo.point.h
    den = memo.delta(nu_val, h)
    return memo.coefficients(memo.normalized, s, g, lambda r: (
        memo.delta(memo.roots[r], nu_val) / den, memo.delta(memo.roots[r], h) / den))


def rmatrix_row(memo: StepMemo, s: int, g: int) -> list:
    """The coefficient row of an R-matrix step by s whose Bott-Samelson
    counterpart reads nu_s as coroot g, kept in memo.rmatrix. zeta_s^(+-1)
    at the twisted point are the values at the point of the roots r =
    twist(alpha_s) and -r; nu and h are the point's own."""
    W, h = memo.group, memo.point.h
    den = memo.delta(memo.coroots[_negated(W, g)], h)
    return memo.coefficients(memo.rmatrix, s, g, lambda r: (
        memo.delta(memo.roots[r], memo.coroots[g]) / den,
        memo.delta(memo.roots[_negated(W, r)], h) / den))


def prepare_point(memo: StepMemo, rmatrix: bool = False, steps=None) -> None:
    """Phase 1 of a point: every delta value and coefficient row that
    bs_table, and with rmatrix rmatrix_table too, reads along the reduced
    words of memo's group is called and checked here, so that a singular
    point raises its SingularPointError here and the tables built afterwards
    call no delta and raise nothing. An exact value's series is expanded
    when a table first reads it (elliptic.QSeries). steps is W.word_steps
    of the elements in the order their tables are built, W.steps (index
    order) by default.

    The initial products read delta(x, h) at the negative coroots and, on
    the word of w, at the positive coroots w sends to negative ones: the
    nu_s of the word's steps, whose rows start with delta(nu_s, h). So the
    values and rows come in the order in which building the tables first
    computes them, and a point singular in several ways raises the error it
    would raise there."""
    h, half = memo.point.h, len(memo.coroots) // 2
    for x in memo.coroots[half:]:  # the initial product at the identity
        memo.delta(x, h)
    for s, g in memo.group.steps if steps is None else steps:
        bs_row(memo, s, g)
        if rmatrix:
            rmatrix_row(memo, s, g)


def bs_step(memo: StepMemo, values: tuple, support: tuple, s: int, g: int) -> tuple:
    """(values, support) after one Bott-Samelson step by s from the table
    `values` with support `support`, reading nu_s as the value of coroot g
    (an index into W.coroots) at memo's point; bs_table gives each step its
    g. Both coefficients are divided by delta(nu_s, h) before they are
    combined (bs_row). support[sigma] is False where the recursion makes
    values[sigma] zero: outside the Bruhat interval below omega, for a
    reduced word."""
    return _step_values(memo.group, values, support, s, bs_row(memo, s, g), memo.point.ctx)


def _unnormalized_step(memo: StepMemo, values: tuple, support: tuple, s: int, g: int) -> tuple:
    """bs_step with the undivided coefficients, kept in memo.unnormalized."""
    nu_val, h = memo.coroots[g], memo.point.h
    row = memo.coefficients(memo.unnormalized, s, g, lambda r: (
        memo.delta(memo.roots[r], nu_val), memo.delta(memo.roots[r], h)))
    return _step_values(memo.group, values, support, s, row, memo.point.ctx)


def _step_values(W: WeylGroup, values, support, s: int, coeffs, ctx):
    """(new values, new support) of a step by s, in which the new value is
    c_keep * values[sigma] + c_mix * values[sigma s] with (c_keep, c_mix) =
    coeffs[r] for the root r = sigma(alpha_s).

    An entry outside `support` is zero, and sigma is in the new support iff
    sigma or sigma s was in the old one, for any word. So the step makes
    each coset {sigma, sigma s} that meets the old support once, by one
    coset kernel of ctx (QContext): `pair` when both entries are in the old
    support, else `single`, which gives sigma s its one term
    c_mix(sigma s) * values[sigma]. Every other entry is ctx.zero()."""
    i = s - 1
    rmult, root_index = W.rmult_table, W.root_index
    pair, single = ctx.pair, ctx.single
    out = [ctx.zero()] * len(values)
    grown = list(support)
    for sigma in compress(range(len(values)), support):
        other = rmult[sigma][i]
        if not support[other]:
            out[sigma], out[other] = single(coeffs[root_index[sigma][i]],
                                            coeffs[root_index[other][i]], values[sigma])
            grown[other] = True
        elif sigma < other:  # else the coset was made at other
            out[sigma], out[other] = pair(coeffs[root_index[sigma][i]],
                                          coeffs[root_index[other][i]],
                                          values[sigma], values[other])
    return tuple(out), tuple(grown)


def bs_table(memo: StepMemo, word) -> tuple:
    """EE values by sigma of memo's group at memo's point for omega =
    product of word (need not be reduced); the tables at one point share
    their step coefficients through the memo."""
    word, W = tuple(word), memo.group
    u, gammas = W.step_coroots(word)
    return _walk(memo, word, gammas, initial_table(memo, u)[W.identity], bs_step)


def unnormalized_table(memo: StepMemo, omega: int) -> tuple:
    """E values by sigma (no normalization) for the element omega, built
    along W.reduced_word(omega) from 1: every step raises the length, so
    each is a Bott-Samelson step with the undivided coefficients. memo as
    for bs_table."""
    word = memo.group.reduced_word(omega)
    return _walk(memo, word, memo.group.step_coroots(word)[1], memo.point.ctx.one(),
                 _unnormalized_step)


def _walk(memo: StepMemo, word, gammas, start, step) -> tuple:
    """The table after step(memo, values, support, s, g) for each letter s
    of word and coroot g of gammas, from the table of omega = id, which is
    start at the identity and zero elsewhere."""
    rest = memo.group.order - 1  # W.identity is 0
    values, support = (start,) + (memo.point.ctx.zero(),) * rest, (True,) + (False,) * rest
    for s, g in zip(word, gammas):
        values, support = step(memo, values, support, s, g)
    return values


# ---------------------------------------------------------------------------
# R-matrix recursion


def rmatrix_table(memo: StepMemo, word) -> tuple:
    """EE values by sigma for omega = product of word via the memoized
    R-matrix recursion; indexing agrees with bs_table on the same word. memo
    as for bs_table: step j reads nu_s as the coroot that step j of bs_table
    reads, and the recursion reads its delta values through the memo."""
    word = tuple(word)
    W = memo.group
    steps = [(s, rmatrix_row(memo, s, g)) for s, g in zip(word, W.step_coroots(word)[1])]
    # the initial product reads no zeta value, so no twist moves it
    start, zero = initial_table(memo)[W.identity], memo.point.ctx.zero()
    return tuple(_rmatrix_value(W, steps, {(len(steps), sigma): start}, zero, 0, W.identity)
                 for sigma in range(W.order))


def _rmatrix_value(W: WeylGroup, steps, kept: dict, zero, j: int, twist: int):
    """EE_(twist^-1 sigma)(X_omega), omega = product(word[j:]), at the point
    twisted by twist, for the table's sigma; steps[j] = (word[j], coefficient
    row of step j). A mixed term sends twist^-1 sigma to s twist^-1 sigma and
    the twist to twist s, so (j, twist) is the whole state. kept holds its
    values for sigma, seeded at the end of the word with the one nonzero
    one, the initial product at twist = sigma; every other end is zero."""
    out = kept.get((j, twist))
    if out is None:
        if j == len(steps):
            return zero
        s, row = steps[j]
        c = row[W.root_index[twist][s - 1]]
        keep = _rmatrix_value(W, steps, kept, zero, j + 1, twist)
        mixed = _rmatrix_value(W, steps, kept, zero, j + 1, W.rmult_table[twist][s - 1])
        out = kept[j, twist] = c[0] * keep + c[1] * mixed
    return out


# ---------------------------------------------------------------------------
# normalization


def _kept_positive(W: WeylGroup, omega: int) -> list:
    """F(G, omega): the indices i of the positive coroots that omega keeps
    positive, in the coordinate order of coroots[i]."""
    half = len(W.coroots) // 2
    return sorted((i for i in range(half) if W.act(omega, i) < half),
                  key=W.coroots.__getitem__)


def normalization_factor(memo: StepMemo, omega: int):
    """c(G, omega) at memo's point, with the delta values of memo."""
    W = memo.group
    return _h_product(memo, (memo.coroots[_negated(W, i)]
                             for i in _kept_positive(W, omega)))


def c_recursion_right_sides(memo: StepMemo, omega: int, s: int):
    """(c(G, omega s), nu-transformed recursion rhs); the shifted factor
    reads h^(-gamma) at the point nu-transformed by s as h^(s(-gamma))."""
    W, h = memo.group, memo.point.h
    lhs = normalization_factor(memo, W.rmult(omega, s))
    shifted = _h_product(memo, (memo.coroots[W.reflected[s - 1][_negated(W, i)]]
                                for i in _kept_positive(W, omega)))
    g = W.root_index[W.identity][s - 1]  # alpha_s^v
    nu_val, nu_inv = memo.coroots[g], memo.coroots[_negated(W, g)]
    if W.length(W.rmult(omega, s)) > W.length(omega):
        rhs = shifted / memo.delta(nu_val, h)
    else:
        rhs = memo.delta(nu_inv, h) * shifted
    return lhs, rhs


def c_recursion_left_sides(memo: StepMemo, omega: int, s: int):
    """(c(G, s omega), recursion rhs), left-multiplication form."""
    W, h = memo.group, memo.point.h
    lhs = normalization_factor(memo, W.lmult(s, omega))
    base = normalization_factor(memo, omega)
    g = W.root_index[W.inv(omega)][s - 1]
    gamma_val, gamma_inv = memo.coroots[g], memo.coroots[_negated(W, g)]
    if W.length(W.lmult(s, omega)) > W.length(omega):
        rhs = base / memo.delta(gamma_inv, h)
    else:
        rhs = memo.delta(gamma_val, h) * base
    return lhs, rhs

