"""The peak resident memory of one command-line run, in a fresh process."""

import os
import subprocess
import sys

import ellschub

# Runs ellschub.cli.main(argv) in a process forked from this small interpreter
# and prints that process's peak RSS in KiB to stderr. Linux carries the peak
# of the process that spawns an interpreter into the interpreter's ru_maxrss,
# so the campaign must run in a fork of a small process to read its own peak.
FORKED_PEAK_RSS = """
import os, resource, sys
pid = os.fork()
if pid:
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
code = 1
try:
    from ellschub.cli import main
    code = main(sys.argv[1:])
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
finally:
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
"""


def forked_peak_rss(*argv, timeout=600):
    """(exit code, peak RSS in MB) of ellschub.cli.main(argv), run in a fork
    of a fresh interpreter with its stdout discarded."""
    src = os.path.dirname(os.path.dirname(ellschub.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", FORKED_PEAK_RSS, *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src}, timeout=timeout)
    return proc.returncode, int(proc.stderr.split()[-1]) / 1024
