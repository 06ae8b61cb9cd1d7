"""One measured repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py SPEC

SPEC is a JSON object with the campaign argv (null to measure set-up only),
the Cartan labels to build during set-up, whether to build their Langlands
duals too, the host-probe period in seconds (null for none), and, for a
traced repetition, the path stem to write the spans to. The campaign writes
its records to this process's stdout, exactly as the ``ellschub`` command
does; the measurements go to stderr as one final line ``PERFBENCH <json>``.
Times named ``*_host_s`` are corrected for host speed (reference.py); the
others are wall times.

The work runs in a process forked from this one, which waits for it and
exits with its code. Linux carries the peak resident memory of the process
that spawned this one into this one's ru_maxrss, so here it would read the
peak of run.py, which holds earlier repetitions' output; the fork starts
from this small process's few megabytes.
"""

import ctypes
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from reference import HostProbe  # noqa: E402

PR_SET_PDEATHSIG = 1


def main() -> int:
    parent = os.getpid()
    pid = os.fork()
    if pid:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    # A timeout kills the waiting process; the work must not outlive it.
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    code = 1
    try:
        if prctl(PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
            raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
        if os.getppid() == parent:
            code = work()
    except SystemExit as err:  # argparse exits this way
        code = err.code if isinstance(err.code, int) else 1
    except Exception:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def work() -> int:
    spec = json.loads(sys.argv[1])
    probe = None
    if spec["probe_every"]:
        probe = HostProbe(spec["probe_every"])
        probe.start()
    try:
        result = measure(spec, probe)
    finally:
        if probe is not None:
            probe.stop()
    setup_end = result.pop("setup_end")
    start, end = result.pop("campaign_start", None), result.pop("campaign_end", None)
    if probe is not None:
        result["setup_host_s"] = probe.host_s(_T0, setup_end)
        if end is not None:
            result["campaign_own_s"] = result["campaign_s"] - probe.probe_s(start, end)
            result["campaign_host_s"] = probe.host_s(start, end)
        result["probe_s"] = probe.probe_s()
        result["speed"] = probe.speed()
    print("PERFBENCH " + json.dumps(result), file=sys.stderr)
    return result.get("exit", 0)


def measure(spec, probe) -> dict:
    import ellschub
    from ellschub import cli, rootsys, weyl

    tracer = None
    if spec["trace_stem"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    # weyl.group caches the group, so the campaign reuses it; the campaign
    # builds the dual group again itself.
    for label in spec["groups"]:
        W = weyl.group(label)
        if spec["dual"]:
            weyl.enumerate_group(rootsys.langlands_dual(W.rs))
    setup_end = time.perf_counter()
    result = {"setup_s": setup_end - _T0, "setup_end": setup_end}
    if spec["argv"] is None:
        return result

    start = time.perf_counter()
    code = cli.main(spec["argv"])
    sys.stdout.flush()
    end = time.perf_counter()

    result.update({
        "module": ellschub.__file__,
        "exit": code,
        "campaign_s": end - start,
        "campaign_start": start,
        "campaign_end": end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if probe is None:
        result["campaign_own_s"] = result["campaign_s"]
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["delta_distinct"] = len(tracer.delta_keys)
        tracer.dump(spec["trace_stem"])
    return result


if __name__ == "__main__":
    raise SystemExit(main())
