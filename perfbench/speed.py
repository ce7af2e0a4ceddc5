"""Time a step at a fixed reference speed of the machine.

On a shared VM other tenants slow everything down, by up to 2x, in spells
that last from under a second to many minutes.  A run cannot wait such a
spell out, and the fastest of a few passes is slow too when the whole run
falls in one: between runs of the same code, the fastest pass spread by
30-40% of its median.

So while a step runs, an interval timer (SIGALRM, every ``INTERVAL_S``)
interrupts it, and the handler times a short fixed piece of work, the
probe, which takes about a millisecond.  The probe's time follows the
machine's speed; it is taken once before the step, at every tick during
it, and once after it.  The step's scaled time is its wall time, less the
time spent in the handler, times the mean of ``reference / probe time``
over those samples: the time the step would take on a machine on which the
probe takes its reference time.  Program changes move the step's time and
not the probe's, so they show in full; a machine-wide slowdown moves both
and cancels.

Contention slows interpreter-bound code and huge-integer multiplication by
different factors, so there are two probes, and each job names the one its
time follows (``Job.probe``): on jobs that square matrices of huge integers
the bigint probe left a quarter of the spread the Python probe left.

A pause of the whole VM slows no probe and is not corrected; the benchmark
keeps each job's fastest scaled time over a run, which drops such pauses.

For a job that runs in a child process (the CLI), the parent's handler
probes while it waits for the child; the child does not inherit the timer.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
_BIG = 7**12_000  # 34 kbit


def python_probe() -> float:
    """Interpreter-bound: small-int arithmetic and dict stores."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(10_000):
        total += i
        table[i & 63] = total
    return time.perf_counter() - start


def bigint_probe() -> float:
    """Multiplier-bound: three products of 34 kbit integers."""
    start = time.perf_counter()
    for _ in range(3):
        _BIG * _BIG
    return time.perf_counter() - start


# kind -> (probe, reference time): about each probe's median time on the
# 2-core Xeon VM the benchmark was built on, sampled over the same minute
PROBES = {"python": (python_probe, 0.0010), "bigint": (bigint_probe, 0.0012)}


class SpeedMeter:
    """``start()`` ... ``stop()`` around one step; not reentrant."""

    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._probe, self._reference = PROBES["python"]
        self._start = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self._probe())
        self.handler_s += time.perf_counter() - start

    def start(self, kind: str = "python") -> None:
        """``kind`` names the probe whose speed the step's follows."""
        self._probe, self._reference = PROBES[kind]
        self.samples = [self._probe()]
        self.handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """Returns (wall seconds less the handler's, speed factor); the
        step's scaled time is their product."""
        elapsed = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(self._probe())
        factor = sum(self._reference / p for p in self.samples) / len(self.samples)
        return elapsed - self.handler_s, factor
