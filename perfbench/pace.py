"""Rescale measured times to a nominal host speed.

On a shared host the same pure-Python work runs up to twice as slow for
stretches of a few seconds to a minute, as other tenants load the cores.
A whole run can fall in a slow stretch, so no statistic over the run's
own samples removes it.  Instead, a timer signal runs a small fixed probe
(exact-fraction and dict arithmetic, as the program does) every ``TICK_S``
seconds inside the measured process.  The mean probe duration around an
interval (less its slowest fifth), divided by ``NOMINAL_S``, is the host's
slowdown over it.  A
measured interval is reported at nominal speed: its wall time, less the
probe time inside it, divided by that slowdown.

A child process is paced by starting it through this script:

    python3 perfbench/pace.py SAMPLES.json -m qshuffle.cli verify --suite qps ...
    python3 perfbench/pace.py SAMPLES.json -c "import qshuffle"

It runs the module or code as ``python -m`` or ``python -c`` would, with
the same stdout and exit code, and writes its probe samples to
``SAMPLES.json`` on exit.  Send its stdout to a file, not a pipe: a timer
signal during a large write to a pipe can cut the output short.
"""

from __future__ import annotations

import atexit
import bisect
import gc
import json
import runpy
import signal
import sys
import time
from fractions import Fraction

# the probe's median duration on the reference host (2-vCPU Xeon, Python 3.11.7)
NOMINAL_S = 350e-6
TICK_S = 0.025
# an interval is rescaled in pieces of at most this length, each with the
# slowdown of the probes within this distance of it
WINDOW_S = 0.5

# CLOCK_MONOTONIC on Linux: one time line for the benchmark and its children
clock = time.monotonic


def probe() -> tuple:
    """The fixed work whose duration measures the host's speed."""
    total = sum(Fraction(i, i + 1) * Fraction(3, i + 2) for i in range(1, 25))
    table: dict = {}
    for i in range(300):
        key = (i % 7, i % 11)
        table[key] = table.get(key, 0) + i * 3
    return total, table


class Pace:
    """Probe samples of one process: start times and durations, in order."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self, *_) -> None:
        # a collection started by the probe's allocations would time the
        # program's heap, not the host; the probe frees all it allocates
        collecting = gc.isenabled()
        gc.disable()
        t0 = clock()
        probe()
        t1 = clock()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def start(self) -> None:
        probe()  # the first call runs colder than the rest
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"starts": self.starts, "durations": self.durations}, fh)

    @classmethod
    def load(cls, path: str) -> "Pace":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        pace = cls()
        pace.starts, pace.durations = data["starts"], data["durations"]
        return pace

    def scaler(self) -> "Scaler":
        return Scaler(self.starts, self.durations)


class Scaler:
    """Rescales intervals of one process's clock by its probe samples."""

    def __init__(self, starts, durations):
        if not durations:
            raise ValueError("no probe samples")
        self.starts = list(starts)
        self.durations = list(durations)
        self.prefix = [0.0]
        for d in durations:
            self.prefix.append(self.prefix[-1] + d)

    def _span(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean probe duration over [t0, t1) relative to NOMINAL_S (all samples if none fall there).

        The slowest fifth of the probes is left out: a probe that the host
        preempts or interrupts reads far longer than any change of speed.
        """
        i, j = self._span(t0, t1)
        if i == j:
            i, j = 0, len(self.starts)
        kept = sorted(self.durations[i:j])
        kept = kept[: len(kept) - len(kept) // 5]
        return sum(kept) / len(kept) / NOMINAL_S

    def probe_time(self, t0: float, t1: float) -> float:
        """Time spent in probes that started within [t0, t1)."""
        i, j = self._span(t0, t1)
        return self.prefix[j] - self.prefix[i]

    def scale(self, t0: float, t1: float) -> float:
        """The interval [t0, t1) at nominal speed, less the probes inside it."""
        total = 0.0
        while t0 < t1:
            end = min(t1, t0 + WINDOW_S)
            total += (end - t0 - self.probe_time(t0, end)) / self.slowdown(t0 - WINDOW_S, end + WINDOW_S)
            t0 = end
        return total


def main(argv: list[str]) -> int:
    """``pace.py SAMPLES -m module args...`` or ``pace.py SAMPLES -c code``."""
    if len(argv) < 3 or argv[1] not in ("-m", "-c"):
        print(__doc__, file=sys.stderr)
        return 2
    out, how, target, rest = argv[0], argv[1], argv[2], argv[3:]
    pace = Pace()

    def finish():
        pace.stop()
        pace.dump(out)

    atexit.register(finish)
    pace.start()
    if how == "-m":
        sys.argv = [target, *rest]
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    else:
        sys.argv = ["-c", *rest]
        exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
    return 0


if __name__ == "__main__":
    sys.path[0] = ""  # like ``python -m``: the working directory, not this script's
    raise SystemExit(main(sys.argv[1:]))
