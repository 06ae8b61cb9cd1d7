"""Host-speed probe: corrects measured times for the speed of a shared host.

On a few cores of a shared host the same campaign can take 6 s or 9 s,
because the host's other tenants slow the core in phases lasting from tens
of milliseconds to tens of seconds. A time taken there measures the host as
much as the program.

HostProbe runs a small fixed pure-Python computation (the probe) from a
SIGALRM handler at a fixed wall-clock period while the program runs, and
times each run of it. A probe sampled uniformly in wall time measures the
host's speed at that moment, NOMINAL_S / probe time; its mean over an
interval is the host's mean speed there. The interval's host-corrected time
is then its wall time, less the time spent in probes, times that mean speed:
the time the same work takes on a core that runs the probe in NOMINAL_S.
A slower phase of the host moves the wall time and the probe alike, and
cancels; a change to the program moves only the wall time.

The probe uses nothing from ellschub, so no change to the program moves it.
Its mix follows the campaigns' profile: tuple-keyed dict look-ups, complex
products, Fraction arithmetic, small object creation and many short calls.
"""

import signal
import sys
import time
from fractions import Fraction
from statistics import fmean

ROUNDS = 12
# Probe time on an unloaded core of the 2-vCPU cloud host the benchmark was
# written on (its fast phase: 2.4-2.6 ms). Only ratios between runs on one
# host matter; the constant makes corrected times read as seconds.
NOMINAL_S = 0.0025


class _Word:
    __slots__ = ("letters", "length")

    def __init__(self, letters):
        self.letters = letters
        self.length = len(letters)


def _step(cache, x, y):
    key = (round(x.real, 6), round(y.real, 6))
    hit = cache.get(key)
    if hit is None:
        hit = (x * y + 1) / (x - y + 3j)
        cache[key] = hit
    return hit


def _kernel(rounds: int) -> complex:
    acc = 0j
    frac = Fraction(0)
    for r in range(rounds):
        cache = {}
        z = complex(0.3 + r % 7 * 0.01, 0.2)
        words = [_Word(tuple((i * j + r) % 5 for j in range(i % 6))) for i in range(40)]
        for w in words:
            for a in w.letters:
                z = _step(cache, z * 0.5 + a, complex(a, w.length)) * 0.9
            acc += z
        for n in range(1, 9):
            frac = (frac + Fraction(r % 11 + 1, n + 2)) * Fraction(n, n + 1)
            frac = Fraction(frac.numerator % 10007, frac.denominator % 10007 + 1)
    return acc + float(frac)


class _AlarmFreeStream:
    """A text stream whose writes run with SIGALRM blocked. A handler that
    runs inside a large write to a pipe makes CPython's buffered writer drop
    the rest of that write (seen with CPython 3.11); blocked, the probe runs
    right after the write instead."""

    def __init__(self, stream):
        self._stream = stream

    def _blocked(self, call, *args):
        old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return call(*args)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, old)

    def write(self, text):
        return self._blocked(self._stream.write, text)

    def flush(self):
        return self._blocked(self._stream.flush)

    def __getattr__(self, name):
        return getattr(self._stream, name)


class HostProbe:
    """Runs the probe every ``every`` seconds of wall time, from SIGALRM,
    and keeps (start, duration) of each run. While it runs, sys.stdout
    writes with SIGALRM blocked."""

    def __init__(self, every: float):
        self.every = every
        self.samples: list[tuple[float, float]] = []
        self._stdout = None

    def _probe(self, signum, frame):
        start = time.perf_counter()
        _kernel(ROUNDS)
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self._stdout, sys.stdout = sys.stdout, _AlarmFreeStream(sys.stdout)
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, 0.001, self.every)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        sys.stdout = self._stdout

    def probe_s(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """Time spent in probes that started in [t0, t1)."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def speed(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """Mean host speed over the probes that started in [t0, t1)."""
        inside = [d for s, d in self.samples if t0 <= s < t1]
        if not inside:
            raise ValueError("no probe ran in the interval")
        return fmean(NOMINAL_S / d for d in inside)

    def host_s(self, t0: float, t1: float) -> float:
        """Host-corrected time of the program's own work in [t0, t1)."""
        return (t1 - t0 - self.probe_s(t0, t1)) * self.speed(t0, t1)
