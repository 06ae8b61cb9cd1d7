"""Command line surface: class tables, verification campaigns, the corpus.

All runs are seeded and deterministic: identical flags and seed produce
byte-identical output. Verification commands exit 0 iff every check passed
and emit one JSON line per check otherwise suitable for machine parsing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import partial

from . import corpus as corpus_mod
from .campaigns import (
    DEFAULT_TOLS,
    resample,
    run_corpus,
    run_double_dual,
    run_duality,
    run_normalization,
    run_recursions,
)
from .classes import StepMemo, bs_table
from .elliptic import (
    EXACT,
    RINGS,
    SingularPointError,
    sample_point,
    var_names,
)
from .rootsys import parse_label
from .weyl import GroupTooLargeError, group

REPORT_CHUNK = 1024  # report lines per write: a campaign keeps at most one chunk


def cmd_table(args, out) -> int:
    label = str(parse_label(args.type))
    W = group(label)
    ctx = RINGS[args.backend](args.qorder, complex(args.q))
    word = corpus_mod.parse_word(args.word)
    for s in word:
        if not 1 <= s <= W.rank:
            print(f"error: word letter {s} out of range 1..{W.rank}", file=sys.stderr)
            return 2
    chart = corpus_mod.builtin_chart(label) if args.chart != "none" else None

    def compute(rng):
        if chart is not None:
            chart_values, point = chart.sample(ctx, rng)
        else:
            point = sample_point(W.rank, ctx, rng)
        return point, bs_table(StepMemo(W, point), word)

    point, values = resample(args.seed, "table", compute)
    scale = max((ctx.magnitude(v) for v in values), default=0.0)
    entries = [
        {
            "sigma_word": list(W.reduced_word(sigma)),
            "value": ctx.value_json(value),
            "zero": ctx.is_zero(value, scale),
        }
        for sigma, value in enumerate(values)
    ]
    doc = {
        "type": label,
        "kind": "EE",
        "word": list(word),
        "seed": args.seed,
        "chart": chart.name if chart is not None else None,
        "point": {**ctx.fields(), "values": dict(zip(var_names(point.rank),
                                                     map(ctx.scalar_json, point.values)))},
        "entries": entries,
    }
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, indent=2), file=out)
        return 0
    word_txts = [" ".join(map(str, e["sigma_word"])) or "id" for e in entries]
    if args.format == "csv":
        lines = ["sigma_word,value,zero"] + [
            f"{txt},{json.dumps(e['value'])},{int(e['zero'])}"
            for txt, e in zip(word_txts, entries)]
    else:
        width = max(map(len, word_txts))
        lines = [f"EE table for {label}, word {list(word)}"] + [
            f"  {txt.ljust(width)}  {'0' if e['zero'] else json.dumps(e['value'])}"
            for txt, e in zip(word_txts, entries)]
    print("\n".join(lines), file=out)
    return 0


def _campaign_settings(args, kind: str):
    """(context, tolerance) of a campaign command, after checking its flags."""
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    if args.tol is not None and not args.tol >= 0:
        raise ValueError(f"--tol must be a number >= 0, got {args.tol}")
    ctx = RINGS[args.backend](args.qorder, complex(args.q))
    return ctx, args.tol if args.tol is not None else DEFAULT_TOLS[kind]


def cmd_verify(args, out) -> int:
    if args.flip_sign and args.kind != "duality":
        raise ValueError(f"--flip-sign applies to verify duality only, not {args.kind}")
    label = str(parse_label(args.type))
    ctx, tol = _campaign_settings(args, args.kind)
    runner = {"duality": partial(run_duality, flip_sign=args.flip_sign),
              "recursions": run_recursions, "normalization": run_normalization,
              "double-dual": run_double_dual}[args.kind]
    return _report(runner(label, ctx, args.points, args.seed, tol), out)


def cmd_corpus(args, out) -> int:
    ctx, tol = _campaign_settings(args, "corpus")
    return _report(run_corpus(ctx, args.points, args.seed, tol), out)


def _report(rows, out) -> int:
    """Read a runner's (lines, failures) rows once, counting both, and write
    the lines REPORT_CHUNK to a write as soon as a chunk is full; the summary
    line goes with the last write. A campaign that raises leaves the whole
    chunks before its failure and no summary line."""
    chunk, count, failures = [], 0, 0
    for lines, bad in rows:
        chunk += lines
        count += len(lines)
        failures += bad
        while len(chunk) >= REPORT_CHUNK:
            out.write("\n".join(chunk[:REPORT_CHUNK]) + "\n")
            del chunk[:REPORT_CHUNK]
    summary = {"summary": True, "checks": count, "failures": failures,
               "pass": not failures}
    chunk.append(json.dumps(summary, sort_keys=True))
    out.write("\n".join(chunk) + "\n")
    return 0 if not failures else 1


@contextmanager
def _output(out_path):
    """stdout, or the --out file, opened before any work so that an
    unwritable path fails at once."""
    if not out_path:
        yield sys.stdout
        sys.stdout.flush()  # so that a closed reader fails inside main
        return
    try:
        fh = open(out_path, "w")
    except OSError as err:
        raise ValueError(f"cannot write {out_path}: {err.strerror}") from err
    with fh:
        yield fh


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellschub",
        description="Local elliptic classes of Schubert varieties and their "
                    "Langlands-duality symmetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_points=True):
        p.add_argument("--backend", choices=list(RINGS), default=EXACT)
        p.add_argument("--qorder", type=int, default=8,
                       help="truncation order (exact backend)")
        p.add_argument("--q", type=float, default=0.3,
                       help="q value (complex backend), |q| < 1; exit 2 at |q| above "
                            "about 0.996 or when a delta leaves the range of doubles")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write output to a file")
        if with_points:
            p.add_argument("--points", type=int, default=3,
                           help="random points per check")
            p.add_argument("--tol", type=float, default=None,
                           help="relative tolerance (complex backend)")

    p_table = sub.add_parser("table", help="print one sigma-indexed class table")
    p_table.add_argument("--type", required=True, help="Cartan label, e.g. B2")
    p_table.add_argument("--word", default="-",
                         help="comma separated simple indices, '-' for identity")
    p_table.add_argument("--chart", choices=["auto", "none"], default="auto")
    p_table.add_argument("--format", choices=["json", "csv", "pretty"],
                         default="json")
    common(p_table, with_points=False)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run a residual campaign")
    p_verify.add_argument("kind", choices=["duality", "recursions",
                                           "normalization", "double-dual"])
    p_verify.add_argument("--type", required=True)
    p_verify.add_argument("--flip-sign", action="store_true",
                          help="negative control: flip the duality sign")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_corpus = sub.add_parser("corpus", help="verify the shipped reference tables")
    common(p_corpus)
    p_corpus.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with _output(args.out) as out:
            return args.func(args, out)
    except BrokenPipeError:
        # the reader has gone; with stdout on devnull the exit flush succeeds
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print("error: cannot write output: broken pipe", file=sys.stderr)
        return 2
    except (ValueError, SingularPointError, GroupTooLargeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory (too large a --qorder or group)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
