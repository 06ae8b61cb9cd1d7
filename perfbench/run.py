"""Layered campaign benchmark for ellschub.

Run from the repository root:

    python3 perfbench/run.py --workload duality-complex-D4 --seed 0 \\
        --seconds 15 --trace 0

Every measured repetition is a fresh interpreter (perfbench/child.py) that
imports ellschub from src/, builds the workload's root systems and Weyl
groups, and runs one campaign through ``ellschub.cli.main``. Repetitions run
one at a time, and never share a process: ``elliptic._delta_caches`` and the
``weyl.group`` cache would make a second in-process campaign a different
program. The seed reaches the program only as ``--seed``.

``--trace 0`` repeats untraced campaigns for about ``--seconds`` seconds and
reports the end-to-end metrics as medians over the repetitions. Their times
are corrected for the speed of the host (perfbench/reference.py): a probe
timed every PROBE_EVERY_S of wall time while the campaign runs gives the
host's mean speed over the campaign, which scales the campaign's own wall
time. A slow phase of a shared host then cancels, and a change to the
program does not. ``setup_s`` is the median over SETUP_REPS processes that
only set up, probed every SETUP_PROBE_EVERY_S.

``--trace 1`` alternates untraced and traced repetitions (perfbench/spans.py)
and reports per-layer call counts and self times, and the uncorrected wall
times; the spans of the last traced repetition are written to
.perfbench_out/<workload>.spans.{json,bin}. Traced repetitions run no probe.

Every repetition passes a correctness gate: the summary line must count the
workload's expected checks, the records must agree with it, exact campaigns
must have no failing check (exact is the oracle), and stdout must be
byte-identical across all repetitions of one run (same code and seed), traced
or not. Traced repetitions must also repeat their call counts exactly and
meet the workload's call-count invariants.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. attempted counts campaign processes; failed counts those
that exited 2, died, timed out or printed no summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from spans import LAYERS

RUN_SECONDS = 15  # how long one run measures; BENCHMARK.json passes it as --seconds
HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
OUT_DIR = ".perfbench_out"
MIN_UNTRACED = 2  # untraced repetitions in a --trace 0 run
SETUP_REPS = 9  # set-up-only processes in a --trace 0 run
PROBE_EVERY_S = 0.075  # host-probe period in an untraced campaign process
SETUP_PROBE_EVERY_S = 0.02  # host-probe period in a set-up-only process
MIN_TRACED = 2  # traced repetitions in a --trace 1 run, so counts can repeat
RUN_LIMIT_S = 150  # start no repetition after this, whatever the minimum
CHILD_LIMIT_S = 170  # a repetition still running then is killed


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # campaign flags; the benchmark adds --points, --seed
    points: int
    groups: tuple[str, ...]  # Cartan labels built during set-up
    dual: bool  # set-up also builds the Langlands dual groups
    exact: bool  # exact backend: the oracle, so no check may fail
    checks_per_point: int
    draws_per_point: int  # point draws when no point is resampled
    calls_per_point: dict  # traced call counts when no point is resampled
    why: str  # why the benchmark has this workload


# Duality and recursions run |W|^2 checks per point. Their bs_table calls
# over all reduced words of W make sum_w l(w) = |W| N / 2 bs_step calls, N
# the number of positive roots; duality does it on both sides.
WORKLOADS = {w.name: w for w in (
    Workload(
        "duality-exact-A3",
        ("verify", "duality", "--type", "A3", "--backend", "exact", "--qorder", "8"),
        points=3, groups=("A3",), dual=True, exact=True,
        checks_per_point=24 * 24, draws_per_point=1,
        calls_per_point={"classes.bs_step": 24 * 6, "classes.bs_table": 2 * 24,
                         "duality.duality_pairs": 1},
        why="exact Fraction q-series: QSeries * and / dominate and delta reuse "
            "is 0.97; a coefficient-ring change shows here, group tables do not",
    ),
    Workload(
        "duality-complex-D4",
        ("verify", "duality", "--type", "D4", "--backend", "complex"),
        points=1, groups=("D4",), dual=True, exact=False,
        checks_per_point=192 * 192, draws_per_point=1,
        calls_per_point={"classes.bs_step": 192 * 12, "classes.bs_table": 2 * 192,
                         "duality.duality_pairs": 1},
        why="36864 checks, no QSeries: bs_step, eval_monomial, delta, "
            "reduced_word and WeylGroup.mul; 8 MB of stdout and false failures",
    ),
    Workload(
        "recursions-complex-B3",
        ("verify", "recursions", "--type", "B3", "--backend", "complex"),
        points=1, groups=("B3",), dual=False, exact=False,
        checks_per_point=48 * 48, draws_per_point=1,
        calls_per_point={"classes.bs_step": 48 * 9 // 2, "classes.bs_table": 48,
                         "classes.rmatrix_table": 48},
        why="the left-multiplication R-matrix path (rmatrix_table, lmult, "
            "twist_point) that the duality workloads never call",
    ),
    # The shipped corpus: 36 table entries, 16 cross-substitution pairs and
    # the worked sum (one draw, two checks).
    Workload(
        "corpus-exact",
        ("corpus", "--backend", "exact", "--qorder", "8"),
        points=3, groups=("A1", "B2", "C2"), dual=False, exact=True,
        checks_per_point=36 + 16 + 2, draws_per_point=36 + 16 + 1,
        calls_per_point={"corpus.corpus_sides": 36},
        why="many fresh chart points, so delta reuse is 0.53 and its cache is "
            "mostly written; the only workload that calls the corpus layer",
    ),
)}

# Per-layer metrics. Every traced function reports its call count. Self
# times are reported for the functions every workload calls, and per module
# (the sum over the module's traced functions), so that no time reads 0 by
# construction on some workload; the printed span table has them all.
COUNTED = tuple(name for name in LAYERS if not name.startswith("cli."))
TIMED = (
    "rootsys.build_root_system", "weyl.enumerate_group", "weyl.reduced_word",
    "weyl.inv", "weyl.from_word", "elliptic.delta", "elliptic.eval_monomial",
    "elliptic.transform_point", "classes.bs_step", "classes.bs_table",
)
MODULES = ("rootsys", "weyl", "elliptic", "classes")

# name -> (unit, better, bound): the bound is the share of the parent's median
# by which a later change may worsen the metric.
# Times are host-corrected seconds (perfbench/reference.py).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "campaign_s": ("s", "lower", 0.2),
    "total_s": ("s", "lower", 0.2),
    "checks_per_s": ("1/s", "higher", 0.2),
    "pass_share": ("share", "higher", 0.02),
    "peak_rss_mb": ("MB", "lower", 0.1),
}
PER_LAYER = {  # name -> (unit, better)
    **{f"{name}.calls": ("count", "lower") for name in COUNTED},
    **{f"{name}.self_s": ("s", "lower") for name in TIMED},
    **{f"{mod}.self_s": ("s", "lower") for mod in MODULES},
    "elliptic.delta.reuse_ratio": ("share", "higher"),
    "cli.runner_s": ("s", "lower"),
    "cli.emit_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "cli.resamples": ("count", "lower"),
    "cli.failed_checks": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "wall.campaign_s": ("s", "lower"),
    "wall.total_s": ("s", "lower"),
    "host.speed": ("share", "higher"),
}


class Rep:
    """One repetition: a fresh campaign process and what it printed."""

    def __init__(self, traced, total_s, code, stdout, result, error):
        self.traced = traced
        self.total_s = total_s
        self.code = code
        self.digest = hashlib.sha256(stdout).hexdigest()
        self.stdout_bytes = len(stdout)
        self.result = result  # the child's PERFBENCH record, or None
        self.error = error  # why the process did not complete, or None
        self.checks = self.failures = None
        self.problems: list[str] = []

    @property
    def completed(self) -> bool:
        return self.error is None


def run_rep(root: Path, w: Workload, seed: int, traced: bool, deadline: float) -> Rep:
    spec = {
        "argv": list(w.argv) + ["--points", str(w.points), "--seed", str(seed)],
        "groups": list(w.groups),
        "dual": w.dual,
        "probe_every": None if traced else PROBE_EVERY_S,
        "trace_stem": str(root / OUT_DIR / f"{w.name}.spans") if traced else None,
    }
    start = time.perf_counter()
    try:  # subprocess.run kills and reaps the child on any exception
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)], capture_output=True,
            cwd=root, env=child_env(root),
            timeout=max(1.0, deadline - time.monotonic()),
        )
        code, stdout, stderr, error = proc.returncode, proc.stdout, proc.stderr, None
    except subprocess.TimeoutExpired as err:
        code, stdout, stderr, error = None, err.stdout or b"", err.stderr or b"", "timed out"
    total_s = time.perf_counter() - start

    result = None
    lines = stderr.decode(errors="replace").splitlines()
    if lines and lines[-1].startswith("PERFBENCH "):
        result = json.loads(lines[-1][len("PERFBENCH "):])
    elif error is None:
        error = f"exit {code}, no measurements: " + " | ".join(lines[-3:])
    rep = Rep(traced, total_s, code, stdout, result, error)
    if rep.completed:
        check_output(root, w, rep, stdout)
    return rep


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("ELLSCHUB_QORDER", None)  # the workloads rely on the default order
    return env


def check_output(root: Path, w: Workload, rep: Rep, stdout: bytes) -> None:
    """Correctness gate for one completed repetition: sets rep.checks and
    rep.failures, records gate violations in rep.problems, and marks a run
    with no valid summary as not completed."""
    lines = stdout.decode(errors="replace").splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        summary = {}
    if rep.code not in (0, 1) or not summary.get("summary"):
        rep.error = f"exit {rep.code}, no summary line"
        return
    rep.checks, rep.failures = summary["checks"], summary["failures"]
    problems = rep.problems
    try:
        records = [json.loads(line) for line in lines[:-1]]
        failing = sum(1 for rec in records if not rec["pass"])
    except (json.JSONDecodeError, KeyError, TypeError):
        problems.append("a record line is not a JSON check record")
        records, failing = [], None
    expected = w.checks_per_point * w.points
    if rep.checks != expected:
        problems.append(f"summary counts {rep.checks} checks, expected {expected}")
    if len(records) != rep.checks or failing != rep.failures:
        problems.append(f"{len(records)} records with {failing} failing disagree "
                        f"with the summary ({rep.checks}, {rep.failures})")
    if rep.code != (1 if rep.failures else 0) or summary["pass"] != (not rep.failures):
        problems.append(f"exit {rep.code} and pass={summary['pass']} disagree "
                        f"with {rep.failures} failures")
    if w.exact and rep.failures:
        problems.append(f"{rep.failures} checks fail on the exact backend")
    if rep.result["exit"] != rep.code:
        problems.append("child exit code differs from the campaign's")
    if not Path(rep.result["module"]).resolve().is_relative_to(root / "src"):
        problems.append(f"imported ellschub from {rep.result['module']}")


def check_traced(w: Workload, traced: list[Rep]) -> list[str]:
    """Call counts repeat exactly and meet the workload's invariants."""
    problems = []
    counts = [{k: v["calls"] for k, v in rep.result["layers"].items()} for rep in traced]
    if any(c != counts[0] for c in counts[1:]):
        diff = sorted(k for k in counts[0] if any(c.get(k) != counts[0][k] for c in counts))
        problems.append(f"call counts differ between traced runs: {diff}")
    if resamples(w, counts[0]) == 0:
        for name, per_point in w.calls_per_point.items():
            if counts[0][name] != per_point * w.points:
                problems.append(f"{name} made {counts[0][name]} calls, "
                                f"expected {per_point * w.points}")
    return problems


def resamples(w: Workload, counts: dict) -> int:
    draws = counts["elliptic.sample_point"] + counts["corpus.Chart.sample"]
    return draws - w.draws_per_point * w.points


def run(root: Path, w: Workload, seed: int, seconds: float, trace: bool):
    start = time.monotonic()
    deadline = start + CHILD_LIMIT_S
    (root / OUT_DIR).mkdir(exist_ok=True)
    # Import once, so that no measured process compiles bytecode.
    subprocess.run([sys.executable, "-c", "import ellschub.cli"], cwd=root,
                   env=child_env(root), check=True, timeout=60, capture_output=True)
    setups = [] if trace else [run_setup(root, w, deadline) for _ in range(SETUP_REPS)]
    reps: list[Rep] = []

    def enough() -> bool:
        done = [r for r in reps if r.completed]
        if not done:
            return False
        untraced = [r for r in done if not r.traced]
        traced = [r for r in done if r.traced]
        if trace and (not untraced or len(traced) < MIN_TRACED):
            return False
        if not trace and len(untraced) < MIN_UNTRACED:
            return False
        return time.monotonic() - start + median(r.total_s for r in done) > seconds

    while time.monotonic() - start < RUN_LIMIT_S and not enough():
        traced = trace and len(reps) % 2 == 0  # traced, untraced, traced, ...
        rep = run_rep(root, w, seed, traced, deadline)
        reps.append(rep)
        print(describe(len(reps), rep), flush=True)
        if len(reps) >= 2 and not any(r.completed for r in reps):
            break  # the program does not run; do not keep retrying
    return reps, setups


def run_setup(root: Path, w: Workload, deadline: float) -> float:
    """Host-corrected set-up time of a process that builds the groups and
    runs no campaign."""
    spec = {"argv": None, "groups": list(w.groups), "dual": w.dual,
            "probe_every": SETUP_PROBE_EVERY_S, "trace_stem": None}
    proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)], cwd=root,
                          env=child_env(root), capture_output=True, check=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    line = proc.stderr.decode(errors="replace").splitlines()[-1]
    return json.loads(line[len("PERFBENCH "):])["setup_host_s"]


def describe(n: int, rep: Rep) -> str:
    kind = "traced" if rep.traced else "untraced"
    if not rep.completed:
        return f"  rep {n} {kind}: FAILED ({rep.error}), {rep.total_s:.3f} s"
    res = rep.result
    host = (f" (host-corrected {res['campaign_host_s']:.3f} s, host speed "
            f"{res['speed']:.3f})" if "speed" in res else "")
    return (f"  rep {n} {kind}: exit {rep.code}, {rep.failures} of {rep.checks} "
            f"checks failing, setup {res['setup_s']:.4f} s, campaign "
            f"{res['campaign_own_s']:.3f} s{host}, total {rep.total_s:.3f} s, "
            f"stdout {rep.stdout_bytes} B sha256 {rep.digest[:16]}")


def end_to_end(w: Workload, reps: list[Rep], setups: list[float]) -> dict:
    done = [r for r in reps if r.completed and not r.traced]
    # a repetition that did not complete fails all its expected checks
    lost = sum(not r.completed for r in reps) * w.checks_per_point * w.points
    checks = sum(r.checks for r in done) + lost
    failures = sum(r.failures for r in done) + lost
    return {
        "setup_s": median(setups),
        "campaign_s": median(r.result["campaign_host_s"] for r in done),
        "total_s": median(host_total_s(r) for r in done),
        "checks_per_s": median(r.checks / r.result["campaign_host_s"] for r in done),
        "pass_share": 1 - failures / checks,
        "peak_rss_mb": median(r.result["peak_rss_mb"] for r in done),
    }


def host_total_s(rep: Rep) -> float:
    """Spawn-to-exit time of a probed repetition, less its probes, scaled by
    the host speed its probes measured."""
    return (rep.total_s - rep.result["probe_s"]) * rep.result["speed"]


def per_layer(w: Workload, reps: list[Rep]) -> dict:
    traced = [r for r in reps if r.completed and r.traced]
    untraced = [r for r in reps if r.completed and not r.traced]
    layers = [r.result["layers"] for r in traced]

    def self_s(names) -> float:
        return median(sum(layer[n]["self_s"] for n in names) for layer in layers)

    counts = {name: layers[0][name]["calls"] for name in layers[0]}
    out = {f"{name}.calls": counts[name] for name in COUNTED}
    out.update({f"{name}.self_s": self_s([name]) for name in TIMED})
    out.update({f"{mod}.self_s": self_s([n for n in layers[0] if n.startswith(mod + ".")])
                for mod in MODULES})
    out["elliptic.delta.reuse_ratio"] = (
        1 - traced[0].result["delta_distinct"] / counts["elliptic.delta"])
    out["cli.runner_s"] = median(layer["cli.runner"]["total_s"] for layer in layers)
    out["cli.emit_s"] = median(
        layer["cli.main"]["total_s"] - layer["cli.runner"]["total_s"] for layer in layers)
    out["cli.stdout_bytes"] = traced[0].stdout_bytes
    out["cli.resamples"] = resamples(w, counts)
    out["cli.failed_checks"] = traced[0].failures
    untraced_s = median(r.result["campaign_own_s"] for r in untraced)
    out["trace.overhead_s"] = median(r.result["campaign_s"] for r in traced) - untraced_s
    out["wall.campaign_s"] = untraced_s
    out["wall.total_s"] = median(r.total_s - r.result["probe_s"] for r in untraced)
    out["host.speed"] = median(r.result["speed"] for r in untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM, so that the running child is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = Path.cwd().resolve()
    if not (root / "src" / "ellschub" / "cli.py").is_file():
        print(f"perfbench: no src/ellschub under {root}; run from the root of an "
              "ellschub checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    print(f"perfbench {w.name} seed {args.seed} trace {args.trace}: "
          f"ellschub {' '.join(w.argv)} --points {w.points} --seed {args.seed}",
          flush=True)
    try:
        reps, setups = run(root, w, args.seed, args.seconds, bool(args.trace))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        stderr = (err.stderr or b"").decode(errors="replace").strip()
        print(f"perfbench: the program does not run: {err}\n{stderr}", file=sys.stderr)
        return 1

    done = [r for r in reps if r.completed]
    problems = list(dict.fromkeys(p for r in done for p in r.problems))
    if len({r.digest for r in done}) > 1:
        problems.append("stdout differs between repetitions of the same seed")
    traced = [r for r in done if r.traced]
    untraced = [r for r in done if not r.traced]
    if args.trace and len(traced) >= MIN_TRACED and untraced:
        problems += check_traced(w, traced)
        metrics, units = per_layer(w, reps), PER_LAYER
    elif not args.trace and untraced:
        metrics, units = end_to_end(w, reps, setups), END_TO_END
    else:
        problems.append("too few completed repetitions to report")
        metrics, units = {}, {}

    for p in problems:
        print(f"GATE FAILED: {p}", flush=True)
    checks = sum(r.checks for r in done)
    failures = sum(r.failures for r in done)
    print(f"  {len(reps)} repetitions, {len(reps) - len(done)} did not complete; "
          f"fail_share {failures / checks if checks else float('nan'):.6g} "
          f"({failures} of {checks} checks)")
    if args.trace and traced:
        print(f"  {'span':28s} {'calls':>9s} {'self_s':>9s} {'total_s':>9s}  (median "
              f"of {len(traced)} traced repetitions)")
        for name in traced[0].result["layers"]:
            rows = [r.result["layers"][name] for r in traced]
            print(f"  {name:28s} {rows[0]['calls']:9d} "
                  f"{median(x['self_s'] for x in rows):9.4f} "
                  f"{median(x['total_s'] for x in rows):9.4f}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name][0]}")
    correct = not problems and bool(done)
    print(json.dumps({
        "correct": correct,
        "attempted": len(reps),
        "failed": len(reps) - len(done),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
