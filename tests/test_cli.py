import cmath
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from ellschub.classes import StepMemo, bs_table
from ellschub.cli import main
from ellschub.elliptic import (
    COMPLEX,
    EXACT,
    QContext,
    QSeries,
    SingularPointError,
    sample_point,
)
from ellschub.weyl import group
from peak_rss import forked_peak_rss
from weyl_reference import bruhat_leq


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_table_json_b2(capsys):
    code, out = run_cli(
        capsys, "table", "--type", "B2", "--word", "1,2", "--backend", "exact",
        "--qorder", "6", "--seed", "7", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "B2"
    assert doc["word"] == [1, 2]
    assert len(doc["entries"]) == 8
    assert sum(e["zero"] for e in doc["entries"]) == 4
    # zeros sit exactly at the non-Bruhat sigmas
    W = group("B2")
    omega = W.from_word((1, 2))
    for e in doc["entries"]:
        sigma = W.from_word(tuple(e["sigma_word"]))
        assert e["zero"] == (not bruhat_leq(W, sigma, omega))
        if e["zero"]:
            assert all(c == "0/1" for c in e["value"])


def test_table_deterministic(capsys):
    argv = ["table", "--type", "B2", "--word", "1,2", "--backend", "exact",
            "--qorder", "4", "--seed", "11"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_table_empty_word_is_initial(capsys):
    code, out = run_cli(capsys, "table", "--type", "A1", "--word", "-",
                        "--qorder", "4", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == []
    zeros = [e["zero"] for e in doc["entries"]]
    assert sorted(zeros) == [False, True]


def test_exact_table_beyond_the_float_range(capsys):
    # the zero test of a table reads the largest magnitude of its values,
    # which at this order and seed is above the largest float: it reads
    # inf, where an int true division used to end in OverflowError
    code, out = run_cli(capsys, "table", "--type", "A1", "--word", "-", "--backend",
                        "exact", "--qorder", "160", "--seed", "7")
    assert code == 0
    assert [e["zero"] for e in json.loads(out)["entries"]] == [False, True]


def test_table_sl2_matches_corpus_products(capsys):
    # the two nonzero entries of the word-(1) table factor per the corpus
    from random import Random

    from ellschub.corpus import builtin_chart, eval_factors, load_corpus
    from ellschub.elliptic import EXACT, QContext

    code, out = run_cli(capsys, "table", "--type", "A1", "--word", "1",
                        "--qorder", "6", "--seed", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    ctx = QContext(EXACT, order=6)
    chart = builtin_chart("A1")
    # rebuild the chart sample the CLI used (seed string fixed by the CLI)
    cv, point = chart.sample(ctx, Random("5:table:0"))
    memo = StepMemo(group("A1"), point)
    by_sigma = {tuple(e["sigma_word"]): e["value"] for e in doc["entries"]}
    for entry in load_corpus("sl2.txt"):
        if entry.omega_word != (1,):
            continue
        expected = eval_factors(entry, cv, memo)
        got = by_sigma[entry.sigma_word]
        assert got == [f"{c.numerator}/{c.denominator}" for c in expected.coeffs]


def test_table_csv_and_pretty(capsys):
    code, out = run_cli(capsys, "table", "--type", "A1", "--word", "1",
                        "--qorder", "4", "--seed", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "sigma_word,value,zero"
    code, out = run_cli(capsys, "table", "--type", "A1", "--word", "1",
                        "--qorder", "4", "--seed", "2", "--format", "pretty")
    assert code == 0
    assert "EE table for A1" in out


def test_table_bad_word_letter(capsys):
    code = main(["table", "--type", "A1", "--word", "3", "--seed", "1"])
    assert code == 2


@pytest.mark.parametrize("word", ["1,,2", "a", "1.5"])
def test_table_malformed_word(word, capsys):
    assert main(["table", "--type", "A2", "--word", word]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot parse word {word!r}\n"


def test_table_bad_type(capsys):
    code = main(["table", "--type", "H2", "--word", "1", "--seed", "1"])
    assert code == 2


def test_verify_duality_a1_passes(capsys):
    code, out = run_cli(capsys, "verify", "duality", "--type", "A1",
                        "--backend", "exact", "--qorder", "6",
                        "--points", "2", "--seed", "3")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    summary = lines[-1]
    assert summary["pass"] and summary["failures"] == 0
    assert summary["checks"] == 2 * 4  # two points, |W|^2 = 4 pairs


def test_verify_duality_flip_sign_fails(capsys):
    code, out = run_cli(capsys, "verify", "duality", "--type", "A1",
                        "--backend", "exact", "--qorder", "4",
                        "--points", "1", "--seed", "3", "--flip-sign")
    assert code == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    failing = [rec for rec in lines[:-1] if not rec["pass"]]
    assert failing
    # offending pairs are identified by their words
    assert all("omega_word" in rec and "sigma_word" in rec for rec in failing)


def test_verify_recursions_complex(capsys):
    code, out = run_cli(capsys, "verify", "recursions", "--type", "A2",
                        "--backend", "complex", "--points", "2", "--seed", "9")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["pass"]


def test_verify_normalization_exact(capsys):
    code, out = run_cli(capsys, "verify", "normalization", "--type", "B2",
                        "--backend", "exact", "--qorder", "4",
                        "--points", "1", "--seed", "2")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["pass"]


def test_verify_double_dual(capsys):
    code, out = run_cli(capsys, "verify", "double-dual", "--type", "A2",
                        "--backend", "exact", "--qorder", "4",
                        "--points", "1", "--seed", "4")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["checks"] == 36


def test_verify_report_deterministic(capsys):
    argv = ["verify", "duality", "--type", "A1", "--backend", "complex",
            "--points", "2", "--seed", "5"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_corpus_command(capsys):
    code, out = run_cli(capsys, "corpus", "--backend", "exact", "--qorder", "4",
                        "--points", "1", "--seed", "6")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    summary = lines[-1]
    assert summary["pass"]
    checks = {rec["check"] for rec in lines[:-1]}
    assert "corpus" in checks
    assert "corpus/cross-substitution" in checks
    assert "corpus/worked-sum/sum-vs-factored" in checks
    assert "corpus/worked-sum/engine-vs-factored" in checks


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.jsonl"
    code = main(["verify", "duality", "--type", "A1", "--qorder", "4",
                 "--points", "1", "--seed", "1", "--out", str(target)])
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert json.loads(lines[-1])["pass"]


def test_environment_does_not_steer_a_run(capsys, monkeypatch):
    # only flags steer a run: no ELLSCHUB_<FLAG> variable sets a default, so
    # the default order stays 8 with every such variable set to 3
    names = [f"ELLSCHUB_{flag.upper()}" for flag in
             ("backend", "qorder", "q", "seed", "points", "tol", "type", "word")]
    argv = ("table", "--type", "A1", "--word", "1", "--seed", "2")
    for name in names:
        monkeypatch.delenv(name, raising=False)
    plain = run_cli(capsys, *argv)
    for name in names:
        monkeypatch.setenv(name, "3")
    assert run_cli(capsys, *argv) == plain
    assert len(json.loads(plain[1])["entries"][0]["value"]) == 9


def test_out_unwritable(tmp_path, capsys):
    target = tmp_path / "missing" / "report.jsonl"
    code = main(["verify", "duality", "--type", "A1", "--qorder", "2",
                 "--points", "1", "--out", str(target)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write")


class RecordingOut:
    """An output stream that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def _report_rows(sizes):
    """Rows of the given numbers of lines, every third line failing, and
    the lines in their order."""
    rows, lines, n = [], [], 0
    for size in sizes:
        row = [json.dumps({"n": n + i, "pass": (n + i) % 3 != 0}, sort_keys=True)
               for i in range(size)]
        rows.append((row, sum((n + i) % 3 == 0 for i in range(size))))
        lines += row
        n += size
    return rows, lines


# rows of 0, 1, 1023, 1024 and 1025 lines, alone and one after the other
ROW_SIZES = [(0,), (1,), (1023,), (1024,), (1025,), (1, 1023), (1023, 1, 1024),
             (0, 1025, 0, 1023, 1), (1024, 1024, 1025), (1,) * 2049]


def test_report_writes_in_bounded_chunks():
    for sizes in ROW_SIZES:
        _check_report(*_report_rows(sizes))


def _check_report(rows, lines):
    from ellschub import cli

    out = RecordingOut()
    failures = sum(bad for _, bad in rows)
    assert cli._report(iter(rows), out) == (1 if failures else 0)
    summary = {"summary": True, "checks": len(lines), "failures": failures,
               "pass": not failures}
    assert "".join(out.writes) == "\n".join(lines + [json.dumps(summary, sort_keys=True)]) + "\n"
    # every write but the last holds one whole chunk, the last the rest and
    # the summary line
    assert [text.count("\n") for text in out.writes[:-1]] == \
        [cli.REPORT_CHUNK] * (len(lines) // cli.REPORT_CHUNK)
    assert out.writes[-1].count("\n") == len(lines) % cli.REPORT_CHUNK + 1

    # a runner that raises after k rows leaves the whole chunks of those rows
    # and no summary
    for k in range(len(rows) + 1):
        def raising():
            yield from rows[:k]
            raise SingularPointError("forced pole")

        out = RecordingOut()
        with pytest.raises(SingularPointError):
            cli._report(raising(), out)
        written = sum(len(row) for row, _ in rows[:k])
        assert out.writes == ["\n".join(lines[start:start + cli.REPORT_CHUNK]) + "\n"
                              for start in range(0, written - cli.REPORT_CHUNK + 1,
                                                 cli.REPORT_CHUNK)]


def test_report_writes_a_chunk_before_the_next_pair_is_made():
    from ellschub import cli

    out = RecordingOut()

    def rows():
        for n in range(cli.REPORT_CHUNK + 1):
            # row n + 1 is made only after the writes of the first n rows
            assert len(out.writes) == n // cli.REPORT_CHUNK
            yield [f"line {n}"], 0

    assert cli._report(rows(), out) == 0
    assert out.writes[0] == "".join(f"line {n}\n" for n in range(cli.REPORT_CHUNK))
    assert out.writes[1].startswith(f"line {cli.REPORT_CHUNK}\n{{")
    assert len(out.writes) == 2


def test_report_memory_is_a_few_chunks():
    # 36864 lines of about 220 B in 192 rows of 192, as a D4 campaign point
    # yields: kept until the last one is in they would take over 9 MB
    import tracemalloc

    from ellschub import cli

    class CountingOut:
        size = 0

        def write(self, text):
            self.size += len(text)

    out, pad = CountingOut(), "x" * 200
    rows = (([f'{{"n": {n}, "{pad}": 0}}' for n in range(start, start + 192)],
             sum(n % 7 == 0 for n in range(start, start + 192)))
            for start in range(0, 36864, 192))
    tracemalloc.start()
    try:
        assert cli._report(rows, out) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.size > 36864 * 215
    assert peak < 4 * cli.REPORT_CHUNK * 300


@pytest.mark.parametrize("extra", ["sigma_word", "simple", None])
def test_record_line_is_the_sorted_json_dump(extra, monkeypatch):
    # the row builder against json.dumps of the record dict: residuals that
    # json spells unlike repr, strings it must quote and escape, q parts -0.0
    from ellschub import campaigns, elliptic

    # the lhs and rhs rows carry the verdicts and the residuals straight through
    for ring in elliptic.RINGS.values():
        monkeypatch.setattr(ring, "verdicts", lambda ctx, tol, oks, residuals: (
            (ok, elliptic._float_json(residual)) for ok, residual in zip(oks, residuals)))
    strange = 'a"b\\c%s{0}}\u00e9'
    words = [(), (1, 2, 3, 4, 2, 3, 1) * 12]
    values = {"sigma_word": words, "simple": [1, 4], None: [None]}[extra]
    for ctx in (QContext(EXACT, order=3), QContext(COMPLEX, q=complex(-0.0, -0.25)),
                QContext(COMPLEX, q=complex(-0.5, -0.0))):
        row = campaigns.record(f"check/{strange}", strange, ctx, 1e-9, extra,
                               file=strange, dual_type="\u03a9")
        for k, omega_word in product([0, 12345], words):
            cases = list(product(
                [True, False],
                [0.0, 5e-324, 1e300, -1.5, float("nan"), float("inf"), float("-inf")],
                values))
            lines = []
            for ok, residual, value in cases:
                rec = {"check": f"check/{strange}", "type": strange, "file": strange,
                       "dual_type": "\u03a9", **ctx.fields(),
                       "omega_word": list(omega_word), "point": k, "residual": residual,
                       "pass": ok}
                if extra is not None:
                    rec[extra] = value
                lines.append((ok, json.dumps(rec, sort_keys=True)))
            oks, residuals, extras = zip(*cases)
            extra_texts = [json.dumps(v) if extra is not None else "" for v in extras]
            omega_text = json.dumps(omega_word)
            assert row(k, omega_text, oks, residuals, extra_texts) == (
                [line for _, line in lines], oks.count(False))
            for ok, residual, extra_text, (_, line) in zip(oks, residuals, extra_texts, lines):
                assert row(k, omega_text, (ok,), (residual,), (extra_text,)) == ([line], not ok)


def reference_compare(ctx, lhs, rhs, tol):
    """(pass, residual) of one pair. Exact: the max |coefficient| of
    lhs - rhs, passing iff it is the zero series. Complex: a pair with a NaN
    part on either side fails with residual NaN; any other pair has
    |lhs - rhs| over the larger of |lhs| and |rhs|, 0.0 if that is 0, and
    passes iff that is at most tol."""
    if ctx.backend == EXACT:
        diff = lhs - rhs
        if ctx.is_zero(diff):
            return True, 0.0
        return False, ctx.magnitude(diff)
    if cmath.isnan(lhs) or cmath.isnan(rhs):
        return False, NAN
    scale = max(abs(lhs), abs(rhs))
    residual = 0.0 if scale == 0.0 else abs(lhs - rhs) / scale
    return residual <= tol, residual


def _series(*coeffs):
    return QSeries([Fraction(c) for c in coeffs])


NAN, INF = float("nan"), float("inf")
VERDICT_CASES = [
    (QContext(COMPLEX, q=0.3), tol, [
        (0j, 0j), (0j, -0j), (-0j, -0j), (complex(0.0, -0.0), 0j), (0j, 1e-300),
        (1e-300j, 0j), (0j, complex(NAN, 0)), (complex(NAN, 0), 0j), (complex(0, NAN), 1),
        (0j, complex(0, NAN)), (-0j, complex(INF, NAN)), (complex(NAN, NAN), 1 + 0j),
        (complex(INF, 0), complex(NAN, 0)),
        (0j, INF), (complex(INF, 0), 1), (complex(INF, 0), complex(INF, 0)),
        (2 + 0j, 1 + 0j), (1 + 0j, 1 + 1e-12), (1 + 1j, 1 + 1j), (-0j, 5 + 0j)])
    for tol in (0.5, 1e-9, 0.0)  # 2 against 1 is a residual exactly at 0.5
] + [
    (QContext(EXACT, order=2), 1e-9, [
        (_series(0, 0, 0), _series(0, 0, 0)), (_series(1, "1/3", 0), _series(1, "1/3", 0)),
        (_series(1, 0, 0), _series(0, 0, 0)), (_series(0, "-2/3", 5), _series(0, 0, 5)),
        (_series(7, 0, "1/9"), _series(7, 0, "2/9")),
        # equal values reached along two paths: one representation
        (_series("1/4", "1/6", 0) + _series("1/4", "1/6", 0), _series("2/4", "2/6", 0))]),
]


@pytest.mark.parametrize("ctx,tol,pairs", VERDICT_CASES,
                         ids=[f"{c[0].backend}-tol{c[1]}" for c in VERDICT_CASES])
def test_row_verdicts_are_the_pairwise_compare(ctx, tol, pairs):
    # zeros of either sign, NaN and inf on either side, a residual at tol
    from ellschub import campaigns

    row = campaigns.record("check", "X", ctx, tol, "sigma_word", dual_type="Y")
    lines = []
    for n, (lhs, rhs) in enumerate(pairs):
        ok, residual = reference_compare(ctx, lhs, rhs, tol)
        rec = {"check": "check", "type": "X", "dual_type": "Y", **ctx.fields(),
               "omega_word": [2], "point": 3, "residual": residual, "pass": ok,
               "sigma_word": [n]}
        lines.append((ok, json.dumps(rec, sort_keys=True)))
    lhs_row, rhs_row = zip(*pairs)
    extra_texts = [json.dumps([n]) for n in range(len(pairs))]
    oks = [ok for ok, _ in lines]
    assert row(3, "[2]", lhs_row, rhs_row, extra_texts) == (
        [line for _, line in lines], oks.count(False))
    for lhs, rhs, extra_text, (ok, line) in zip(lhs_row, rhs_row, extra_texts, lines):
        assert row(3, "[2]", (lhs,), (rhs,), (extra_text,)) == ([line], not ok)
    assert {ok for ok, _ in lines} == {True, False}


def test_closed_reader_exits_2():
    # stdout is a pipe whose reader has already gone
    import ellschub

    src = os.path.dirname(os.path.dirname(ellschub.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ellschub.cli", "verify", "duality", "--type", "A1",
             "--points", "1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.decode() == "error: cannot write output: broken pipe\n"


@pytest.mark.parametrize("argv,entry", [
    (["verify", "duality", "--type", "D4", "--backend", "complex", "--points", "1"],
     "run_duality"),
    (["verify", "recursions", "--type", "B2"], "run_recursions"),
    (["corpus"], "run_corpus"),
    (["table", "--type", "B2", "--word", "1,2"], "resample"),
])
def test_out_unwritable_fails_before_work(argv, entry, tmp_path, capsys, monkeypatch):
    from ellschub import cli

    def never(*args, **kwargs):
        raise AssertionError(f"{entry} ran although --out is unwritable")

    monkeypatch.setattr(cli, entry, never)
    target = tmp_path / "missing" / "report.jsonl"
    assert main(argv + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}")


@pytest.mark.parametrize("argv", [
    ["verify", "duality", "--type", "A1", "--points", "0"],
    ["verify", "recursions", "--type", "A1", "--points", "-1"],
    ["corpus", "--points", "0"],
    ["verify", "duality", "--type", "A1", "--tol", "-0.5"],
    ["corpus", "--tol", "nan"],
])
def test_bad_campaign_flags(argv, capsys):
    assert main(argv + ["--qorder", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --")


def test_table_out_of_resamples(capsys, monkeypatch):
    from ellschub import cli
    from ellschub.elliptic import SingularPointError

    calls = []

    def singular(memo, word):
        calls.append(memo.point)
        raise SingularPointError("forced pole")

    monkeypatch.setattr(cli, "bs_table", singular)
    assert main(["table", "--type", "A1", "--word", "1", "--qorder", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: no nonsingular point")
    assert len(calls) == 10
    assert len({p.values for p in calls}) == 10  # each try draws a new point


def test_campaign_out_of_resamples_at_a_later_point_leaves_whole_chunks(tmp_path, capsys,
                                                                       monkeypatch):
    # the first point's 2304 records are read, and its first two chunks are
    # written, before the second point runs out of draws; the rest of the
    # first point and the summary line are not
    from ellschub import campaigns, cli
    from ellschub.elliptic import SingularPointError

    argv = ["verify", "duality", "--type", "B3", "--backend", "complex"]
    assert main(argv + ["--points", "1"]) == 0
    first_point = capsys.readouterr().out.splitlines(keepends=True)
    assert len(first_point) == 2304 + 1 > 2 * cli.REPORT_CHUNK
    calls = []

    def singular_after_one(*args):
        calls.append(args)
        if len(calls) > 1:
            raise SingularPointError("forced pole")
        return duality_pairs(*args)

    duality_pairs = campaigns.duality_pairs
    monkeypatch.setattr(campaigns, "duality_pairs", singular_after_one)
    target = tmp_path / "report.jsonl"
    argv += ["--points", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "".join(first_point[:2 * cli.REPORT_CHUNK])
    assert captured.err.startswith("error: no nonsingular point")
    assert len(calls) == 1 + campaigns.ATTEMPTS
    calls.clear()
    assert main(argv + ["--out", str(target)]) == 2
    assert len(calls) == 1 + campaigns.ATTEMPTS
    assert target.read_text() == captured.out


@pytest.fixture
def computed_deltas(monkeypatch):
    """A one-item list that counts the delta values computed from here on."""
    from ellschub import elliptic

    count = [0]
    for ring in elliptic.RINGS.values():
        def counted(*args, compute=ring.delta):
            count[0] += 1
            return compute(*args)

        monkeypatch.setattr(ring, "delta", counted)
    return count


def test_two_tables_share_deltas_only_through_a_memo(computed_deltas):
    # delta keeps nothing: the StepMemo of a point is the only keeper
    W = group("B2")
    point = sample_point(W.rank, QContext(EXACT, order=3), Random("delta-owner"))
    word = W.reduced_word(W.longest)
    bs_table(StepMemo(W, point), word)
    once = computed_deltas[0]
    assert once > 0
    bs_table(StepMemo(W, point), word)
    assert computed_deltas[0] == 2 * once
    memo = StepMemo(W, point)
    bs_table(memo, word)
    bs_table(memo, word)
    assert computed_deltas[0] == 3 * once


@pytest.mark.parametrize("argv,computed", [
    # 32 on the exact backend too: the R-matrix step reads zeta_s^-1 as the
    # value of the negated root, the float the Bott-Samelson steps read
    (["verify", "recursions", "--type", "B2", "--backend", "complex", "--points", "1"], 32),
    (["verify", "double-dual", "--type", "A2", "--qorder", "4", "--points", "1"], 30),
    (["verify", "normalization", "--type", "B2", "--qorder", "4", "--points", "1"], 48),
    (["verify", "duality", "--type", "A2", "--qorder", "4", "--points", "2"], 120),
])
def test_campaigns_compute_each_delta_of_a_point_once(argv, computed, computed_deltas,
                                                      capsys):
    # the counts of the module-level cache that per-point memos replaced:
    # the tables of one point, and the two sides of a double-dual or
    # normalization check, share one memo's delta values
    assert main(argv + ["--seed", "0"]) == 0
    capsys.readouterr()
    assert computed_deltas[0] == computed


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_complex_duality_computes_the_deltas_of_exact(label, computed_deltas, capsys):
    # every root and coroot value is read by index at the memo's own point,
    # so the memo meets one float per root or coroot and misses no cached
    # delta; the q-order leaves the count as it is, and a low one keeps the
    # exact R-matrix tables of the recursions campaign short
    for campaign, qorder in (("duality", "8"), ("normalization", "2"), ("recursions", "2")):
        counts = []
        for backend in ("exact", "complex"):
            computed_deltas[0] = 0
            assert main(["verify", campaign, "--type", label, "--backend", backend,
                         "--qorder", qorder, "--points", "1", "--seed", "0"]) == 0
            counts.append(computed_deltas[0])
        capsys.readouterr()
        assert counts[0] == counts[1] > 0, campaign


def test_group_above_the_order_cap_exits_2(capsys, monkeypatch):
    from ellschub import weyl

    def too_large(label):
        raise weyl.GroupTooLargeError(
            f"Weyl group of {label} has order 696729600, above the order cap 1000000")

    monkeypatch.setattr(weyl, "_cached_group", too_large)
    assert main(["verify", "duality", "--type", "E8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: Weyl group of E8 has order 696729600, above the "
                            "order cap 1000000\n")


@pytest.mark.parametrize("argv", [
    ["verify", "duality", "--type", "A1", "--points", "1"],
    ["table", "--type", "A1", "--word", "1"],
])
@pytest.mark.parametrize("q", ["nan", "1", "-1.5"])
def test_complex_q_outside_unit_disc(argv, q, capsys):
    # NaN compares False with everything, so |q| >= 1 let it through
    assert main(argv + ["--backend", "complex", "--q", q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: complex backend needs |q| < 1\n"


def test_complex_run_whose_deltas_leave_the_doubles_exits_2(capsys):
    # at q = 0.995 every B3 draw meets a delta below the smallest double;
    # taken as 0.0, it let the negative control pass all 2304 checks
    argv = ["verify", "duality", "--type", "B3", "--backend", "complex",
            "--q", "0.995", "--points", "1", "--flip-sign"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: no nonsingular point after 10 tries: "
                            "delta value outside the range of doubles\n")


def test_complex_q_too_close_to_1_exits_2(capsys):
    # 10000 factors of a product no longer bring its tail below 1e-18
    argv = ["verify", "duality", "--type", "A2", "--backend", "complex",
            "--q", "0.999", "--points", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: q = 0.999+0j: 10000 factors")


@pytest.mark.parametrize("argv", [
    ["verify", "duality", "--type", "A2"],
    ["table", "--type", "A2", "--word", "1"],
])
def test_qorder_too_large_for_an_index(argv, capsys):
    # rejected before any series is built, so nothing is allocated
    assert main(argv + ["--qorder", "100000000000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: truncation order must be at most ")


@pytest.mark.parametrize("argv", [
    ["verify", "duality", "--type", "A1", "--points", "1"],
    ["table", "--type", "A1", "--word", "1"],
    ["verify", "recursions", "--type", "A1", "--points", "1"],
    ["verify", "double-dual", "--type", "A1", "--points", "1"],
    ["verify", "normalization", "--type", "A1", "--points", "1"],
    ["corpus", "--points", "1"],
])
def test_qorder_too_large_to_hold(argv, capsys):
    # sys.maxsize passes the index check, and a series of that length fails
    # at once, before anything is allocated
    assert main(argv + ["--qorder", str(sys.maxsize)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory (too large a --qorder or group)\n"


# Calls the exact delta at q-order sys.maxsize in a process whose address
# space is capped at 1 GiB, and prints its peak RSS in KiB once the call
# raises MemoryError.
CAPPED_DELTA = """
import resource, sys
from fractions import Fraction
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from ellschub.elliptic import EXACT, QContext, delta
try:
    delta(Fraction(2), Fraction(3), QContext(EXACT, order=sys.maxsize))
except MemoryError:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_exact_delta_at_an_order_too_large_to_hold_fails_at_once():
    # delta makes its list of coefficients before the power rows of its
    # arguments, which would otherwise grow until memory runs out; the cap
    # turns such a regression into a failure here rather than an exhausted
    # machine
    import ellschub

    src = os.path.dirname(os.path.dirname(ellschub.__file__))
    proc = subprocess.run([sys.executable, "-c", CAPPED_DELTA], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100 * 1024  # KiB: nothing was allocated


# F4 complex duality at one point peaks at 40 MB with and without
# --flip-sign (x86-64 Linux, CPython 3.11); it took 73 and 112 MB while a
# point kept both grids of values, and a negated copy under --flip-sign
F4_PEAK_MB = 60


@pytest.mark.tier2
def test_f4_complex_duality_peak_rss():
    # 1327104 records, 343 MB of them, written a chunk at a time: the peak is
    # the point's source grid (F4_PEAK_MB), not them
    code, peak_mb = forked_peak_rss("verify", "duality", "--type", "F4", "--backend", "complex",
                                    "--points", "1", "--seed", "0", "--out", os.devnull)
    assert code == 1  # the complex backend's false failures
    assert peak_mb < F4_PEAK_MB


@pytest.mark.tier2
def test_f4_complex_flip_sign_duality_peak_rss():
    # a negative sign makes each lhs row afresh, one row at a time, and keeps
    # no negated copy of the source grid
    code, peak_mb = forked_peak_rss("verify", "duality", "--type", "F4", "--backend", "complex",
                                    "--points", "1", "--seed", "0", "--flip-sign",
                                    "--out", os.devnull)
    assert code == 1
    assert peak_mb < F4_PEAK_MB
