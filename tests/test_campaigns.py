"""The one record loop of the campaigns, campaigns._records: the tags under
which each runner draws its points, the redraw of a point whose values hit a
singularity, and the one parse of each corpus file per corpus campaign."""

import json

import pytest

from ellschub import campaigns, classes, corpus
from ellschub.elliptic import EXACT, QContext, SingularPointError

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
