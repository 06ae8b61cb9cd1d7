"""The one record loop of the campaigns, campaigns._records: the tags under
which each runner draws its points, the redraw of a point whose values hit a
singularity, the two phases of a point (every delta first, then the tables
a row at a time), and the one parse of each corpus file per corpus
campaign."""

import json
from collections import Counter
from random import Random

import pytest

from ellschub import campaigns, classes, corpus, duality
from ellschub.elliptic import COMPLEX, EXACT, QContext, SingularPointError, sample_point
from ellschub.weyl import group

CTX = QContext(EXACT, order=3)
RUNNERS = {
    "duality": lambda: campaigns.run_duality("A2", CTX, 2, 0, 1e-9),
    "double-dual": lambda: campaigns.run_double_dual("A2", CTX, 2, 0, 1e-9),
    "recursions": lambda: campaigns.run_recursions("A2", CTX, 2, 0, 1e-9),
    "normalization": lambda: campaigns.run_normalization("A2", CTX, 2, 0, 1e-9),
    "corpus": lambda: campaigns.run_corpus(CTX, 2, 0, 1e-9),
}
# 106 corpus draws: the 36 shipped entries, the 16 cross-substitution pairs
# and the worked sum, at 2 points each
CORPUS_TAGS = ([f"corpus:{fname}:{n}:{k}"
                for fname, entries in (("sl2.txt", 4), ("so5.txt", 16), ("sp2.txt", 16))
                for n in range(entries) for k in range(2)]
               + [f"cross:{n}:{k}" for n in range(16) for k in range(2)]
               + ["worked:0", "worked:1"])
TAGS = {name: [f"{name}:0", f"{name}:1"] for name in RUNNERS}
TAGS["corpus"] = CORPUS_TAGS


def checks(rows):
    """The (pass, line) pair of every record in a runner's (lines, failures)
    rows, the pass flag read from the line; each row's failure count must be
    the number of its lines that fail."""
    out = []
    for lines, failures in rows:
        row = [(json.loads(line)["pass"], line) for line in lines]
        assert [ok for ok, _ in row].count(False) == failures
        out += row
    return out


@pytest.mark.parametrize("runner", RUNNERS)
def test_runner_draws_its_points_under_fixed_tags(runner, monkeypatch):
    # a point is drawn from Random(f"{seed}:{tag}:{k}:{attempt}"), so a tag
    # that moves changes every point, and so every record, of its campaign
    calls = []
    resample = campaigns.resample

    def recording(seed, tag, compute):
        calls.append((seed, tag))
        return resample(seed, tag, compute)

    monkeypatch.setattr(campaigns, "resample", recording)
    records = checks(RUNNERS[runner]())
    assert calls == [(0, tag) for tag in TAGS[runner]]
    assert records and all(ok for ok, _ in records)


@pytest.mark.parametrize("runner", RUNNERS)
def test_runner_redraws_a_point_whose_first_delta_is_singular(runner, monkeypatch):
    # every value of a point is computed before its rows leave resample, so
    # a singularity at the point's first delta redraws the point rather
    # than ending the campaign
    expected = len(checks(RUNNERS[runner]()))
    raised = []
    delta = classes.delta

    def singular_once(*args, **kwargs):
        if not raised:
            raised.append(args)
            raise SingularPointError("forced pole")
        return delta(*args, **kwargs)

    monkeypatch.setattr(classes, "delta", singular_once)
    records = checks(RUNNERS[runner]())
    assert len(raised) == 1
    assert len(records) == expected
    assert all(ok for ok, _ in records)


def test_corpus_campaign_parses_each_file_once(monkeypatch):
    # corpus.corpus_checks loads each shipped file once and hands the Sp(2)
    # and SO(5) entries on to the cross-substitution pairs
    loaded = []
    load_corpus = corpus.load_corpus

    def counting(name):
        loaded.append(name)
        return load_corpus(name)

    monkeypatch.setattr(corpus, "load_corpus", counting)
    records = checks(campaigns.run_corpus(CTX, 1, 0, 1e-9))
    assert len(records) == 54
    assert loaded == ["sl2.txt", "so5.txt", "sp2.txt"]


def _table_builders(monkeypatch, wrap):
    """Replace bs_table and rmatrix_table by wrap(name, table) wherever a
    campaign calls them."""
    for module in (campaigns, duality):
        for name in ("bs_table", "rmatrix_table"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrap(name, getattr(module, name)))


PHASE_RUNNERS = {
    "duality": campaigns.run_duality,
    "double-dual": campaigns.run_double_dual,
    "recursions": campaigns.run_recursions,
}


@pytest.mark.parametrize("backend", [EXACT, COMPLEX])
@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
@pytest.mark.parametrize("campaign", PHASE_RUNNERS)
def test_tables_add_no_delta_after_the_first_phase(campaign, label, backend, monkeypatch):
    # every delta a point's tables read is computed before they are built,
    # inside resample, so a table adds no entry to its memo's deltas
    built = []

    def wrap(name, table):
        def checked(memo, word):
            before = len(memo.deltas)
            values = table(memo, word)
            assert len(memo.deltas) == before, (name, word)
            built.append(name)
            return values

        return checked

    _table_builders(monkeypatch, wrap)
    W = group(label)
    records = checks(PHASE_RUNNERS[campaign](label, QContext(backend, order=2), 1, 0, 1e-9))
    assert len(records) == W.order ** 2
    assert len(built) == 2 * W.order


@pytest.mark.parametrize("campaign,first", [
    # all the source tables, the columns of the lhs rows, and one dual table
    ("duality", [("B3", 48), ("C3", 1)]),
    ("double-dual", [("B3", 1), ("B3", 1)]),  # a straight and a twisted table
    ("recursions", [("B3", 1), ("B3", 1)]),  # the two tables of one word
])
def test_a_point_yields_its_first_row_after_the_tables_it_reads(campaign, first,
                                                                 monkeypatch):
    # the tables of a point are built a row at a time as its records are
    # read, so none is kept that no row needs yet
    built = Counter()  # (memo, table kind) -> tables built

    def wrap(name, table):
        def counting(memo, word):
            built[memo, name] += 1
            return table(memo, word)

        return counting

    _table_builders(monkeypatch, wrap)
    rows = PHASE_RUNNERS[campaign]("B3", QContext(COMPLEX), 1, 0, 1e-9)
    lines, _ = next(rows)
    assert len(lines) == 48
    assert sorted((str(memo.group.rs.label), n) for (memo, _), n in built.items()) == first
    checks(rows)
    assert sorted(built.values()) == [48, 48]  # no table is built twice


@pytest.mark.parametrize("backend", [EXACT, COMPLEX])
def test_a_delta_only_the_last_table_reads_redraws_the_point_first(backend, monkeypatch):
    # In A1 duality only the dual table of omega = s, the point's last table,
    # reads delta(zeta_1, nu_1) at the drawn point. Singular there, the point
    # is redrawn before any of its records is made, as if every table were
    # built before the first record.
    ctx = QContext(backend, order=2)
    expected = len(checks(campaigns.run_duality("A1", ctx, 1, 0, 1e-9)))
    points, raised = [], []
    sample_point = campaigns.sample_point
    delta = classes.delta

    def drawing(*args):
        points.append(sample_point(*args))
        return points[-1]

    def singular_at_the_first_draw(a, b, *args, **kwargs):
        if (a, b) == points[0].values[:2] and not raised:
            raised.append(len(points))
            raise SingularPointError("forced pole")
        return delta(a, b, *args, **kwargs)

    monkeypatch.setattr(campaigns, "sample_point", drawing)
    monkeypatch.setattr(classes, "delta", singular_at_the_first_draw)
    rows = campaigns.run_duality("A1", ctx, 1, 0, 1e-9)
    first = checks([next(rows)])
    assert raised == [1]  # at the first draw, before the first row
    assert len(points) == 2
    records = first + checks(rows)
    assert len(records) == expected
    assert all(ok for ok, _ in records)


@pytest.mark.parametrize("backend", [EXACT, COMPLEX])
@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_first_phase_computes_in_the_order_the_tables_would(label, backend, monkeypatch):
    # the first phase computes each delta and makes each coefficient row
    # where building the tables word by word first would, so a point
    # singular in several ways raises the same error, and a row shared by
    # steps of several letters is made by the same one
    W = group(label)
    point = sample_point(W.rank, QContext(backend, order=2), Random(label))
    conj = [W.mul(W.mul(W.longest, w), W.longest) for w in range(W.order)]
    log = []
    delta, coefficients = classes.delta, classes.StepMemo.coefficients

    def logged_delta(a, b, *args, **kwargs):
        log.append((a, b))
        return delta(a, b, *args, **kwargs)

    def logged_coefficients(memo, kept, s, g, pair):
        if kept[g] is None:
            log.append((kept is memo.rmatrix, s, g))
        return coefficients(memo, kept, s, g, pair)

    monkeypatch.setattr(classes, "delta", logged_delta)
    monkeypatch.setattr(classes.StepMemo, "coefficients", logged_coefficients)
    for elements, rmatrix in ((range(W.order), False), (range(W.order), True), (conj, False)):
        log.clear()
        classes.prepare_point(classes.StepMemo(W, point), rmatrix, W.word_steps(elements))
        first = list(log)
        log.clear()
        memo = classes.StepMemo(W, point)
        for w in elements:
            classes.bs_table(memo, W.reduced_word(w))
            if rmatrix:
                classes.rmatrix_table(memo, W.reduced_word(w))
        assert first == log and first
