"""Coordinate charts and the shipped table corpus.

Corpus files live under data/corpus/, one entry per line:

    TYPE omega_word sigma_word [-] (a|b)(a|b)...
    TYPE omega_word sigma_word 0

where words are comma separated 1-based simple indices ("-" for the
identity), a leading "-" token flips the sign, "(a|b)" stands for
delta(a, b), and a, b are monomials in the chart variables, e.g.
"mu1^2", "z2/z1", "1/(z1*z2)", "h". A bare "0" marks an entry that must
vanish identically.

Chart values are tuples in chart-variable order. A chart's canonical
(zeta, nu, h) variables and every corpus monomial are exponent rows over
its chart variables, read by one parser and evaluated by
elliptic.monomial_map; the chart-to-canonical direction always has integer
exponents.

The module owns the corpus campaign's draws: corpus_checks names each draw's
group, chart and records, and gives the sides that each record compares.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from importlib import resources
from random import Random

from .classes import StepMemo, bs_table
from .elliptic import (
    EvalPoint,
    QContext,
    monomial_map,
    var_names,
)
from .weyl import group


@dataclass(frozen=True)
class Chart:
    name: str
    chart_vars: tuple[str, ...]
    # per canonical variable, exponents over chart_vars
    canonical_map: tuple[tuple[int, ...], ...]

    def to_point(self, chart_values: tuple, ctx: QContext) -> EvalPoint:
        return EvalPoint(ctx, monomial_map(chart_values, self.canonical_map))

    def sample(self, ctx: QContext, rng: Random) -> tuple[tuple, EvalPoint]:
        values = ctx.draw(len(self.chart_vars), rng)
        return values, self.to_point(values, ctx)


def _chart(name: str, chart_vars, monomials) -> Chart:
    """The chart whose canonical variables are the given monomials."""
    return Chart(name, chart_vars,
                 tuple(parse_monomial(m, chart_vars) for m in monomials))


def sl_chart(n: int) -> Chart:
    """Type A_(n-1) chart: zeta_s = z_(s+1)/z_s, nu_s = mu_(s+1)/mu_s."""
    z = [f"z{i}" for i in range(1, n + 1)]
    mu = [f"mu{i}" for i in range(1, n + 1)]
    ratios = [f"{v[s]}/{v[s - 1]}" for v in (z, mu) for s in range(1, n)]
    return _chart(f"sl{n}", tuple(z + mu + ["h"]), ratios + ["h"])


# the chart variables of both rank-2 charts, in chart-value order
_RANK2_VARS = ("z1", "z2", "mu1", "mu2", "h")


def so5_chart() -> Chart:
    """B2 chart: zeta1 = z2/z1, zeta2 = 1/z2, nu1 = mu2/mu1, nu2 = 1/mu2^2."""
    return _chart("so5", _RANK2_VARS, ("z2/z1", "1/z2", "mu2/mu1", "1/mu2^2", "h"))


def sp2_chart() -> Chart:
    """C2 chart: zeta1 = z2/z1, zeta2 = 1/z2^2, nu1 = mu2/mu1, nu2 = 1/mu2."""
    return _chart("sp2", _RANK2_VARS, ("z2/z1", "1/z2^2", "mu2/mu1", "1/mu2", "h"))


def builtin_chart(label: str) -> Chart:
    if label == "B2":
        return so5_chart()
    if label == "C2":
        return sp2_chart()
    if label.startswith("A"):
        return sl_chart(int(label[1:]) + 1)
    names = var_names(int(label[1:]))
    return _chart("canonical", names, names)


# ---------------------------------------------------------------------------
# corpus entries

_FACTOR_RE = re.compile(r"\(([^()|]+(?:\([^()]*\))?[^()|]*)\|([^()|]+(?:\([^()]*\))?[^()|]*)\)")
_POW_RE = re.compile(r"([A-Za-z]+\d*)(?:\^(-?\d+))?")


def parse_monomial(text: str, chart_vars) -> tuple[int, ...]:
    """Exponent row over chart_vars of a chart monomial like '1/(z1*z2)' or
    'mu1^2'; raises ValueError for an unknown variable or an empty monomial."""
    text = text.strip().replace(" ", "")
    num_text, _, den_text = text.partition("/")
    row = [0] * len(chart_vars)

    def absorb(part, sign):
        if part in ("", "1"):
            return
        if part.startswith("(") and part.endswith(")"):
            part = part[1:-1]
        for piece in part.split("*"):
            m = _POW_RE.fullmatch(piece)
            if not m:
                raise ValueError(f"cannot parse monomial piece {piece!r} in {text!r}")
            if m.group(1) not in chart_vars:
                raise ValueError(f"unknown chart variable {m.group(1)!r} in {text!r}")
            row[chart_vars.index(m.group(1))] += sign * int(m.group(2) or 1)

    absorb(num_text, 1)
    absorb(den_text, -1)
    if not any(row):
        raise ValueError(f"empty monomial {text!r}")
    return tuple(row)


@dataclass(frozen=True)
class CorpusEntry:
    group_label: str
    omega_word: tuple[int, ...]
    sigma_word: tuple[int, ...]
    sign: int
    # (a|b) as exponent rows over the chart variables of builtin_chart(label);
    # empty with sign 0 means expected zero
    factors: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def expects_zero(self):
        return self.sign == 0


def parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("-", ""):
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse word {text!r}") from None


def parse_entry(line: str) -> CorpusEntry:
    parts = line.split(None, 3)
    if len(parts) < 4:
        raise ValueError(f"malformed corpus line: {line!r}")
    label, omega, sigma, rest = parts
    rest = rest.strip()
    if rest == "0":
        return CorpusEntry(label, parse_word(omega), parse_word(sigma), 0, ())
    sign = 1
    if rest.startswith("- "):
        sign = -1
        rest = rest[2:].strip()
    factors = _parse_product(rest, builtin_chart(label).chart_vars)
    if not factors:
        raise ValueError(f"no delta factors parsed from {rest!r}")
    return CorpusEntry(label, parse_word(omega), parse_word(sigma), sign, factors)


def _parse_product(text: str, chart_vars) -> tuple:
    return tuple(
        (parse_monomial(m.group(1), chart_vars), parse_monomial(m.group(2), chart_vars))
        for m in _FACTOR_RE.finditer(text)
    )


def load_corpus(name: str) -> list[CorpusEntry]:
    text = resources.files("ellschub.data.corpus").joinpath(name).read_text()
    lines = (line.strip() for line in text.splitlines())
    return [parse_entry(line) for line in lines if line and not line.startswith("#")]


CORPUS_FILES = ("sl2.txt", "so5.txt", "sp2.txt")


def eval_factors(entry: CorpusEntry, chart_values: tuple, memo: StepMemo):
    """The entry's signed product of delta(a, b) over its factors (a|b) at the
    chart values, with the delta values of memo."""
    value = memo.delta_product(monomial_map(chart_values, pair) for pair in entry.factors)
    return -value if entry.sign < 0 else value


# ---------------------------------------------------------------------------
# checks driven by the corpus


def corpus_sides(entry: CorpusEntry, chart_values: tuple, memo: StepMemo):
    """((engine value, factored expected value),), the row of one check at
    the chart values, with memo made for the entry's group at their point;
    the engine value is the one entry of the table that the check reads."""
    engine = bs_table(memo, entry.omega_word, read=memo.group.from_word(entry.sigma_word))
    if entry.expects_zero:
        return ((engine, memo.point.ctx.zero()),)
    return ((engine, eval_factors(entry, chart_values, memo)),)


def cross_substitution_pairs(sp2_entries, so5_entries) -> list[tuple[CorpusEntry, CorpusEntry]]:
    """Pair each Sp(2) entry with the SO(5) entry at (tau0 sigma^{-1},
    tau0 omega^{-1}); the tables must match under mu_i <-> zbar_i^{-1},
    mubar_i <-> z_i^{-1}, h <-> h^{-1}."""
    W = group("B2")
    t0 = W.longest
    so5 = {(W.from_word(e.omega_word), W.from_word(e.sigma_word)): e
           for e in so5_entries}
    out = []
    for entry in sp2_entries:
        omega, sigma = map(W.from_word, (entry.omega_word, entry.sigma_word))
        out.append((entry, so5[(W.mul(t0, W.inv(sigma)), W.mul(t0, W.inv(omega)))]))
    return out


# the SO(5) chart values in terms of the Sp(2) ones: z_i := 1/mu_i,
# mu_i := 1/z_i, h := 1/h
_CROSS_ROWS = tuple(parse_monomial(m, _RANK2_VARS)
                    for m in ("1/mu1", "1/mu2", "1/z1", "1/z2", "1/h"))


def cross_substitution_sides(sp2_entry: CorpusEntry, so5_entry: CorpusEntry,
                             sp2_values: tuple, memo: StepMemo):
    """(((-1)^(l(tau0)) times the substituted SO(5) value, the Sp(2)
    value),), the row of one check, with the delta values of memo;
    l(tau0) = 4, so the sign is +1."""
    if sp2_entry.expects_zero or so5_entry.expects_zero:
        if sp2_entry.expects_zero != so5_entry.expects_zero:
            raise AssertionError("vanishing patterns disagree across the dual tables")
        zero = memo.point.ctx.zero()
        return ((zero, zero),)
    lhs = eval_factors(so5_entry, monomial_map(sp2_values, _CROSS_ROWS), memo)
    return ((lhs, eval_factors(sp2_entry, sp2_values, memo)),)


WORKED_SUM_PREFIX = "(z1^2|h)(z1/z2|h)"
WORKED_SUM_TERMS = (
    "(z1^2|1/mu2)(1/(z1*z2)|1/(mu1*mu2))",
    "(1/z1^2|1/mu1)(z1/z2|1/(mu1*mu2))",
    "(1/z2^2|1/mu1)(z2/z1|mu2/mu1)",
)
WORKED_SUM_TOTAL = "(z1^2|h)(z1/z2|h)(1/z2^2|1/mu2)(1/(z1*z2)|mu2/mu1)"
WORKED_SUM_WORD = (1, 2, 1, 2)  # a reduced word for tau0
WORKED_SUM_SIGMA = (1, 2)


_WORKED_SUM = tuple(_parse_product(text, _RANK2_VARS) for text in (
    WORKED_SUM_PREFIX, *WORKED_SUM_TERMS, WORKED_SUM_TOTAL))


def worked_sum_values(sigma: int, chart_values: tuple, memo: StepMemo):
    """The rows (three-term sum value, factored total value) and (engine
    value, factored total value) for EE_{s1s2}(X^v_tau0) in the Sp(2)
    chart, with the delta values of memo; sigma is the element of
    WORKED_SUM_SIGMA in memo's group."""
    prefix, *terms, factored = (
        memo.delta_product(monomial_map(chart_values, pair) for pair in factors)
        for factors in _WORKED_SUM)
    engine = bs_table(memo, WORKED_SUM_WORD, read=sigma)
    return (prefix * sum(terms, memo.point.ctx.zero()), factored), (engine, factored)


def corpus_checks():
    """Every draw of the corpus campaign, in order, as (tag, label, chart,
    heads, sides): a point of group label drawn in chart under tag; a head
    (check, record fields, omega word, sigma word) per record; and
    sides(chart_values, memo), the (lhs, rhs) of each head at the point."""
    entries = {name: load_corpus(name) for name in CORPUS_FILES}
    for name, file_entries in entries.items():
        for n, entry in enumerate(file_entries):
            yield (f"corpus:{name}:{n}", entry.group_label, builtin_chart(entry.group_label),
                   (("corpus", {"file": name}, entry.omega_word, entry.sigma_word),),
                   partial(corpus_sides, entry))
    sp2 = sp2_chart()
    pairs = cross_substitution_pairs(entries["sp2.txt"], entries["so5.txt"])
    for n, (sp2_entry, so5_entry) in enumerate(pairs):
        head = ("corpus/cross-substitution", {"dual_type": "B2"},
                sp2_entry.omega_word, sp2_entry.sigma_word)
        yield (f"cross:{n}", "C2", sp2, (head,),
               partial(cross_substitution_sides, sp2_entry, so5_entry))
    heads = tuple((f"corpus/worked-sum/{kind}", {}, WORKED_SUM_WORD, WORKED_SUM_SIGMA)
                  for kind in ("sum-vs-factored", "engine-vs-factored"))
    sigma = group("C2").from_word(WORKED_SUM_SIGMA)
    yield "worked", "C2", sp2, heads, partial(worked_sum_values, sigma)
