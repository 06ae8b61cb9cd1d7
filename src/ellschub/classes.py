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
each right coset {sigma, sigma s}. A table is the dict of its entries by
sigma, and an entry it does not hold is zero. A step makes the cosets that
meet the table's entries, each by one call of a coset kernel of the
context's ring (QContext.pair or single), which returns both new entries. A
whole table gives each step all of its table's entries; a table read at one
entry (`read`) gives each step only those that the entry depends on.

Unnormalized classes E take the same walk from E_id(X_id) = 1 along a
reduced word of omega, so every step raises the length, with the two
Bott-Samelson coefficients not divided by delta(nu_s, h); the two are
related by EE = c(G, omega) . E with

    c(G, omega) = prod over reflections s with omega(alpha_s) positive
                  of delta(nu_s^{-1}, h).
"""

from __future__ import annotations

from functools import reduce
from operator import mul

from .elliptic import EvalPoint, delta, monomial_map
from .weyl import WeylGroup


def _negated(W: WeylGroup, i: int) -> int:
    """The index of -roots[i], and of -coroots[i]: the positive ones come first."""
    half = len(W.roots) // 2
    return i + half if i < half else i - half


def initial_product(memo: StepMemo, u: int = 0):
    """EE_id(X_id) at memo's point, the full delta product over the
    positive coroots gamma, each read as u(gamma), as the first step of a
    word with product u^-1 needs (the default 0 is W.identity). It is the
    one entry of the table of omega = id, from which _walk starts."""
    W = memo.group
    return _h_product(memo, (  # u(-gamma) for the -gamma
        memo.coroots[W.act(u, i)] for i in range(len(W.coroots) // 2, len(W.coroots))))


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

    `roots` and `coroots` hold the point's values of e^(-beta) = prod
    zeta_t^(beta_t) and h^gamma = prod nu_t^(gamma_t), by index into W.roots
    and W.coroots. A step reads nu_s as coroot g and sigma(alpha_s), or the
    twist's image of alpha_s, as root r in W.orbits[g], whatever its letter,
    so its coefficient pairs are kept in rows [g][r], each made once, whole
    (`coefficients`): `normalized` those of bs_step (bs_row), divided by
    delta(nu_s, h), `unnormalized` the undivided ones of unnormalized_table,
    and `rmatrix` those of rmatrix_table (rmatrix_row), which read roots r
    and -r. A campaign fills the memo before it builds any table
    (prepare_point), so that its tables only read it."""

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

    def coefficients(self, kept: list, g: int, coefficients) -> list:
        """[r] -> coefficients(r) for every root r of a step that reads nu_s
        as coroot g, made whole once and kept in kept[g]: those roots are
        W.orbits[g], the W-orbit of roots[g], whatever the step's letter. A
        root whose entries no table holds is computed too, so whether a
        point raises does not depend on which table reads the row first."""
        row = kept[g]
        if row is None:
            row = [None] * len(self.roots)
            for r in self.group.orbits[g]:
                row[r] = coefficients(r)
            kept[g] = row
        return row


def bs_row(memo: StepMemo, g: int) -> list:
    """The coefficient row of a Bott-Samelson step that reads nu_s as the
    value of coroot g, kept in memo.normalized: by root r, the pair
    delta(e^(-r), nu_s) and delta(e^(-r), h), both divided by
    delta(nu_s, h)."""
    nu_val, h = memo.coroots[g], memo.point.h
    den = memo.delta(nu_val, h)
    return memo.coefficients(memo.normalized, g, lambda r: (
        memo.delta(memo.roots[r], nu_val) / den, memo.delta(memo.roots[r], h) / den))


def rmatrix_row(memo: StepMemo, g: int) -> list:
    """The coefficient row of an R-matrix step whose Bott-Samelson
    counterpart reads nu_s as coroot g, kept in memo.rmatrix. zeta_s^(+-1)
    at the twisted point are the values at the point of the roots r =
    twist(alpha_s) and -r; nu and h are the point's own."""
    W, h = memo.group, memo.point.h
    den = memo.delta(memo.coroots[_negated(W, g)], h)
    return memo.coefficients(memo.rmatrix, g, lambda r: (
        memo.delta(memo.roots[r], memo.coroots[g]) / den,
        memo.delta(memo.roots[_negated(W, r)], h) / den))


def prepare_point(memo: StepMemo, rmatrix: bool = False) -> None:
    """Phase 1 of a point: delta(x, h) at every negative coroot x, then the
    coefficient row of every positive coroot, bs_row and with rmatrix
    rmatrix_row too. These are every delta value and row that bs_table, and
    with rmatrix rmatrix_table, reads along the reduced words of memo's
    group: the steps of those words read exactly the positive coroots, and
    an initial product reads delta(x, h) at the negative coroots or at the
    nu_s of steps, with which their rows start. So a singular point raises
    its SingularPointError here, and the tables built afterwards call no
    delta and raise nothing. An exact value's series is expanded when a
    table first reads it (elliptic.QSeries)."""
    h, half = memo.point.h, len(memo.coroots) // 2
    for x in memo.coroots[half:]:  # the initial product at the identity
        memo.delta(x, h)
    for g in range(half):
        bs_row(memo, g)
        if rmatrix:
            rmatrix_row(memo, g)


def bs_step(memo: StepMemo, table: dict, s: int, g: int) -> dict:
    """The table after one Bott-Samelson step by s from `table`, reading
    nu_s as the value of coroot g (an index into W.coroots) at memo's point;
    bs_table gives each step its g. Both coefficients are divided by
    delta(nu_s, h) before they are combined (bs_row). The table's entries
    are those the recursion does not make zero: for a reduced word, the
    Bruhat interval below omega."""
    return _step_values(memo.group, table, s, bs_row(memo, g), memo.point.ctx)


def _unnormalized_step(memo: StepMemo, table: dict, s: int, g: int) -> dict:
    """bs_step with the undivided coefficients, kept in memo.unnormalized."""
    nu_val, h = memo.coroots[g], memo.point.h
    row = memo.coefficients(memo.unnormalized, g, lambda r: (
        memo.delta(memo.roots[r], nu_val), memo.delta(memo.roots[r], h)))
    return _step_values(memo.group, table, s, row, memo.point.ctx)


def _step_values(W: WeylGroup, table: dict, s: int, coeffs, ctx) -> dict:
    """The table after a step by s, in which the new entry is
    c_keep * table[sigma] + c_mix * table[sigma s] with (c_keep, c_mix) =
    coeffs[r] for the root r = sigma(alpha_s).

    An entry the table does not hold is zero, and the new table holds sigma
    iff the old one held sigma or sigma s, for any word. So the step makes
    each coset {sigma, sigma s} that meets the table's entries once, by one
    coset kernel of ctx (QContext): `pair` when the table holds both
    entries, else `single`, which gives sigma s its one term
    c_mix(sigma s) * table[sigma]."""
    i = s - 1
    rmult, root_index = W.rmult_table, W.root_index
    pair, single = ctx.pair, ctx.single
    out = {}
    for sigma, x in table.items():
        other = rmult[sigma][i]
        y = table.get(other)
        if y is None:
            out[sigma], out[other] = single(coeffs[root_index[sigma][i]],
                                            coeffs[root_index[other][i]], x)
        elif sigma < other:  # else the coset was made at other
            out[sigma], out[other] = pair(coeffs[root_index[sigma][i]],
                                          coeffs[root_index[other][i]], x, y)
    return out


def bs_table(memo: StepMemo, word, read: int | None = None):
    """EE values by sigma of memo's group at memo's point for omega =
    product of word (need not be reduced); the tables at one point share
    their step coefficients through the memo. With read, only the entry
    EE_read(X_omega), from the same steps restricted to what it depends on
    (_walk)."""
    word, W = tuple(word), memo.group
    u, gammas = W.step_coroots(word)
    return _walk(memo, word, gammas, initial_product(memo, u), bs_step, read)


def unnormalized_table(memo: StepMemo, omega: int, read: int | None = None):
    """E values by sigma (no normalization) for the element omega, built
    along W.reduced_word(omega) from 1: every step raises the length, so
    each is a Bott-Samelson step with the undivided coefficients. memo and
    read as for bs_table; the diagonal entry, read = omega, takes one
    `single` kernel call per step."""
    word = memo.group.reduced_word(omega)
    return _walk(memo, word, memo.group.step_coroots(word)[1], memo.point.ctx.one(),
                 _unnormalized_step, read)


def _walk(memo: StepMemo, word, gammas, start, step, read: int | None = None):
    """The table after step(memo, table, s, g) for each letter s of word and
    coroot g of gammas, from the table of omega = id, whose one entry is
    start at the identity: a tuple by sigma, zero where the last table holds
    no entry.

    With read, its entry at read alone. Entry sigma after a step by s reads
    entries sigma and sigma s before it, so a backward pass over word finds
    the entries of each table that read depends on (_cones), and each step
    is given the table's entries among them. It makes the cosets of those
    entries by the same kernel calls on the same inputs as the whole walk,
    so the entry is the same value, bit for bit on the complex ring; and it
    still reads every coefficient row that the whole walk reads."""
    W, zero = memo.group, memo.point.ctx.zero()
    table = {W.identity: start}
    if read is None:
        for s, g in zip(word, gammas):
            table = step(memo, table, s, g)
        return tuple(table.get(sigma, zero) for sigma in range(W.order))
    for s, g, cone in zip(word, gammas, _cones(W, word, read)):
        table = step(memo, {x: table[x] for x in cone if x in table}, s, g)
    return table.get(read, zero)


def _cones(W: WeylGroup, word, read: int) -> list:
    """cones[j], the entries of the table before step j of word on which
    entry read of the last table depends: sigma and sigma s, s = word[j],
    for each sigma of cones[j + 1] ({read} after the last step), kept if
    their length is at most j, as the table before step j vanishes beyond
    length j for any word. A cone costs its size, at most twice the next
    one's; on the diagonal of a reduced word, one element."""
    rmult, lengths = W.rmult_table, W.lengths
    cone, cones = {read}, []
    for j in range(len(word) - 1, -1, -1):
        i = word[j] - 1
        cone = {x for sigma in cone for x in (sigma, rmult[sigma][i]) if lengths[x] <= j}
        cones.append(cone)
    return cones[::-1]


# ---------------------------------------------------------------------------
# R-matrix recursion


def rmatrix_table(memo: StepMemo, word) -> tuple:
    """EE values by sigma for omega = product of word via the memoized
    R-matrix recursion; indexing agrees with bs_table on the same word. memo
    as for bs_table: step j reads nu_s as the coroot that step j of bs_table
    reads, and the recursion reads its delta values through the memo."""
    word = tuple(word)
    W = memo.group
    steps = [(s, rmatrix_row(memo, g)) for s, g in zip(word, W.step_coroots(word)[1])]
    # the initial product reads no zeta value, so no twist moves it
    start, zero = initial_product(memo), memo.point.ctx.zero()
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
    positive, in the coordinate order of coroots[i]. The ones omega sends
    negative are the coroots that the steps of its reduced word read."""
    sent = W.step_coroots(W.reduced_word(omega))[1]
    return sorted(set(range(len(W.coroots) // 2)).difference(sent),
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

