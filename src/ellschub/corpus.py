"""Coordinate charts and the shipped table corpus.

Corpus files live under data/corpus/, one entry per line:

    TYPE omega_word sigma_word [-] (a|b)(a|b)...
    TYPE omega_word sigma_word 0

where words are comma separated 1-based simple indices ("-" for the
identity), a leading "-" token flips the sign, "(a|b)" stands for
delta(a, b), and a, b are monomials in the chart variables, e.g.
"mu1^2", "z2/z1", "1/(z1*z2)", "h". A bare "0" marks an entry that must
vanish identically.

Charts map chart-variable assignments to canonical (zeta, nu, h) points;
the chart-to-canonical direction always has integer exponents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from random import Random

from .elliptic import (
    EvalPoint,
    Monomial,
    QContext,
    delta,
    monomial_map,
    sample_values,
    var_names,
)
from .weyl import WeylGroup, group


@dataclass(frozen=True)
class Chart:
    name: str
    group_label: str
    chart_vars: tuple[str, ...]
    # per canonical variable, exponents over chart_vars
    canonical_map: tuple[tuple[int, ...], ...]

    @property
    def rank(self):
        return (len(self.canonical_map) - 1) // 2

    def to_point(self, chart_values: dict, ctx: QContext) -> EvalPoint:
        values = tuple(chart_values[name] for name in self.chart_vars)
        return EvalPoint(ctx, monomial_map(values, self.canonical_map))

    def sample(self, ctx: QContext, rng: Random) -> tuple[dict, EvalPoint]:
        values = dict(zip(self.chart_vars, sample_values(len(self.chart_vars), ctx, rng)))
        return values, self.to_point(values, ctx)


def _chart_rows(chart_vars, rows):
    idx = {name: i for i, name in enumerate(chart_vars)}
    out = []
    for row in rows:
        exps = [0] * len(chart_vars)
        for name, e in row.items():
            exps[idx[name]] = e
        out.append(tuple(exps))
    return tuple(out)


def sl_chart(n: int) -> Chart:
    """Type A_(n-1) chart: zeta_s = z_(s+1)/z_s, nu_s = mu_(s+1)/mu_s."""
    chart_vars = tuple(
        [f"z{i}" for i in range(1, n + 1)] + [f"mu{i}" for i in range(1, n + 1)] + ["h"]
    )
    rows = []
    for s in range(1, n):
        rows.append({f"z{s}": -1, f"z{s + 1}": 1})
    for s in range(1, n):
        rows.append({f"mu{s}": -1, f"mu{s + 1}": 1})
    rows.append({"h": 1})
    return Chart(f"sl{n}", f"A{n - 1}", chart_vars, _chart_rows(chart_vars, rows))


def so5_chart() -> Chart:
    """B2 chart: zeta1 = z2/z1, zeta2 = 1/z2, nu1 = mu2/mu1, nu2 = 1/mu2^2."""
    chart_vars = ("z1", "z2", "mu1", "mu2", "h")
    rows = [
        {"z1": -1, "z2": 1},
        {"z2": -1},
        {"mu1": -1, "mu2": 1},
        {"mu2": -2},
        {"h": 1},
    ]
    return Chart("so5", "B2", chart_vars, _chart_rows(chart_vars, rows))


def sp2_chart() -> Chart:
    """C2 chart: zeta1 = z2/z1, zeta2 = 1/z2^2, nu1 = mu2/mu1, nu2 = 1/mu2."""
    chart_vars = ("z1", "z2", "mu1", "mu2", "h")
    rows = [
        {"z1": -1, "z2": 1},
        {"z2": -2},
        {"mu1": -1, "mu2": 1},
        {"mu2": -1},
        {"h": 1},
    ]
    return Chart("sp2", "C2", chart_vars, _chart_rows(chart_vars, rows))


def identity_chart(label: str, rank: int) -> Chart:
    names = var_names(rank)
    rows = [{name: 1} for name in names]
    return Chart("canonical", label, names, _chart_rows(names, rows))


def builtin_chart(label: str) -> Chart:
    if label == "B2":
        return so5_chart()
    if label == "C2":
        return sp2_chart()
    if label.startswith("A"):
        return sl_chart(int(label[1:]) + 1)
    rank = int(label[1:])
    return identity_chart(label, rank)


def chart_to_canonical(chart: Chart, chart_exps: dict) -> Monomial:
    """Solve for the canonical monomial whose chart image has the given
    exponents; raises if no exact integer solution exists."""
    n_can = len(chart.canonical_map)
    n_chart = len(chart.chart_vars)
    target = [Fraction(chart_exps.get(name, 0)) for name in chart.chart_vars]
    # columns = chart images of the canonical variables
    cols = [[Fraction(chart.canonical_map[j][i]) for j in range(n_can)]
            for i in range(n_chart)]
    rows = list(range(n_chart))
    sol = [Fraction(0)] * n_can
    pivots = []
    r = 0
    for c in range(n_can):
        p = next((i for i in rows[r:] if cols[i][c] != 0), None)
        if p is None:
            continue
        i = rows.index(p)
        rows[r], rows[i] = rows[i], rows[r]
        pr = rows[r]
        for other in rows:
            if other != pr and cols[other][c] != 0:
                f = cols[other][c] / cols[pr][c]
                for cc in range(n_can):
                    cols[other][cc] -= f * cols[pr][cc]
                target[other] -= f * target[pr]
        pivots.append((pr, c))
        r += 1
    for pr, c in pivots:
        sol[c] = target[pr] / cols[pr][c]
        target[pr] = Fraction(0)
    for i in rows:
        if target[i] != 0 and all(c == 0 for c in cols[i]):
            raise ValueError("chart monomial is not the image of a canonical monomial")
    # verify and demand integrality
    for i in range(n_chart):
        acc = sum(
            sol[j] * chart.canonical_map[j][i] for j in range(n_can)
        )
        if acc != chart_exps.get(chart.chart_vars[i], 0):
            raise ValueError("chart monomial is not the image of a canonical monomial")
    if any(s.denominator != 1 for s in sol):
        raise ValueError("canonical preimage requires fractional exponents")
    return Monomial(tuple(int(s) for s in sol))


# ---------------------------------------------------------------------------
# corpus entries

_FACTOR_RE = re.compile(r"\(([^()|]+(?:\([^()]*\))?[^()|]*)\|([^()|]+(?:\([^()]*\))?[^()|]*)\)")
_POW_RE = re.compile(r"([A-Za-z]+\d*)(?:\^(-?\d+))?")


def parse_monomial(text: str) -> dict:
    """Exponent dict of a chart monomial like '1/(z1*z2)' or 'mu1^2'."""
    text = text.strip().replace(" ", "")
    if "/" in text:
        num_text, den_text = text.split("/", 1)
    else:
        num_text, den_text = text, ""
    out: dict = {}

    def absorb(part, sign):
        part = part.strip()
        if part in ("", "1"):
            return
        if part.startswith("(") and part.endswith(")"):
            part = part[1:-1]
        for piece in part.split("*"):
            m = _POW_RE.fullmatch(piece)
            if not m:
                raise ValueError(f"cannot parse monomial piece {piece!r} in {text!r}")
            name, exp = m.group(1), int(m.group(2) or 1)
            out[name] = out.get(name, 0) + sign * exp

    absorb(num_text, 1)
    absorb(den_text, -1)
    return {k: v for k, v in out.items() if v}


@dataclass(frozen=True)
class CorpusEntry:
    group_label: str
    omega_word: tuple[int, ...]
    sigma_word: tuple[int, ...]
    sign: int
    factors: tuple[tuple[dict, dict], ...]  # empty with sign 0 means expected zero

    @property
    def expects_zero(self):
        return self.sign == 0


def parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("-", ""):
        return ()
    return tuple(int(x) for x in text.split(","))


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
    factors = _parse_product(rest)
    if not factors:
        raise ValueError(f"no delta factors parsed from {rest!r}")
    return CorpusEntry(label, parse_word(omega), parse_word(sigma), sign, factors)


def _parse_product(text: str) -> tuple[tuple[dict, dict], ...]:
    return tuple(
        (parse_monomial(m.group(1)), parse_monomial(m.group(2)))
        for m in _FACTOR_RE.finditer(text)
    )


def load_corpus(name: str) -> list[CorpusEntry]:
    text = resources.files("ellschub.data.corpus").joinpath(name).read_text()
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append(parse_entry(line))
    return out


def corpus_files() -> tuple[str, ...]:
    return ("sl2.txt", "so5.txt", "sp2.txt")


def eval_chart_monomial(exps: dict, chart_values: dict):
    acc = None
    for name, e in sorted(exps.items()):
        if name not in chart_values:
            raise KeyError(f"chart value for {name!r} missing")
        term = chart_values[name] ** e
        acc = term if acc is None else acc * term
    if acc is None:
        raise ValueError("empty monomial in a delta factor")
    return acc


def _delta_product(factors, chart_values: dict, ctx: QContext):
    """prod delta(a, b) over the factors (a|b), in their order."""
    acc = ctx.one()
    for a_exps, b_exps in factors:
        a = eval_chart_monomial(a_exps, chart_values)
        b = eval_chart_monomial(b_exps, chart_values)
        acc = acc * delta(a, b, ctx)
    return acc


def eval_factors(entry: CorpusEntry, chart_values: dict, ctx: QContext):
    return _delta_product(entry.factors, chart_values, ctx) * entry.sign


# ---------------------------------------------------------------------------
# checks driven by the corpus


def corpus_sides(entry: CorpusEntry, W: WeylGroup, chart: Chart,
                 chart_values: dict, point: EvalPoint):
    """(engine value, factored expected value) at one point."""
    from .classes import bs_table

    table = bs_table(W, entry.omega_word, point)
    sigma = W.from_word(entry.sigma_word)
    engine = table.values[sigma]
    if entry.expects_zero:
        return engine, point.ctx.zero()
    return engine, eval_factors(entry, chart_values, point.ctx)


def cross_substitution_pairs() -> list[tuple[CorpusEntry, CorpusEntry]]:
    """Pair each Sp(2) entry with the SO(5) entry at (tau0 sigma^{-1},
    tau0 omega^{-1}); the tables must match under mu_i <-> zbar_i^{-1},
    mubar_i <-> z_i^{-1}, h <-> h^{-1}."""
    W = group("B2")
    t0 = W.longest
    so5 = {(W.from_word(e.omega_word), W.from_word(e.sigma_word)): e
           for e in load_corpus("so5.txt")}
    out = []
    for entry in load_corpus("sp2.txt"):
        omega = W.from_word(entry.omega_word)
        sigma = W.from_word(entry.sigma_word)
        partner = so5[(W.mul(t0, W.inv(sigma)), W.mul(t0, W.inv(omega)))]
        out.append((entry, partner))
    return out


def cross_substitution_sides(sp2_entry: CorpusEntry, so5_entry: CorpusEntry,
                             sp2_values: dict, ctx: QContext):
    """((-1)^(l(tau0)) times the substituted SO(5) value, the Sp(2) value);
    l(tau0) = 4 here so the sign is +1."""
    so5_values = {
        "z1": sp2_values["mu1"] ** -1,
        "z2": sp2_values["mu2"] ** -1,
        "mu1": sp2_values["z1"] ** -1,
        "mu2": sp2_values["z2"] ** -1,
        "h": sp2_values["h"] ** -1,
    }
    if sp2_entry.expects_zero or so5_entry.expects_zero:
        if sp2_entry.expects_zero != so5_entry.expects_zero:
            raise AssertionError("vanishing patterns disagree across the dual tables")
        return ctx.zero(), ctx.zero()
    lhs = eval_factors(so5_entry, so5_values, ctx)
    rhs = eval_factors(sp2_entry, sp2_values, ctx)
    return lhs, rhs


WORKED_SUM_PREFIX = "(z1^2|h)(z1/z2|h)"
WORKED_SUM_TERMS = (
    "(z1^2|1/mu2)(1/(z1*z2)|1/(mu1*mu2))",
    "(1/z1^2|1/mu1)(z1/z2|1/(mu1*mu2))",
    "(1/z2^2|1/mu1)(z2/z1|mu2/mu1)",
)
WORKED_SUM_TOTAL = "(z1^2|h)(z1/z2|h)(1/z2^2|1/mu2)(1/(z1*z2)|mu2/mu1)"
WORKED_SUM_WORD = (1, 2, 1, 2)  # a reduced word for tau0
WORKED_SUM_SIGMA = (1, 2)


def worked_sum_values(chart_values: dict, ctx: QContext):
    """(three-term sum value, factored total value) for EE_{s1s2}(X^v_tau0)
    in the Sp(2) chart."""
    def product(text):
        return _delta_product(_parse_product(text), chart_values, ctx)

    prefix = product(WORKED_SUM_PREFIX)
    total = ctx.zero()
    for term in WORKED_SUM_TERMS:
        total = total + product(term)
    return prefix * total, product(WORKED_SUM_TOTAL)
