"""Fixed reference computations that gauge how fast the host runs just now.

The benchmark runs on a shared host whose speed drifts, by up to 1.8x in
phases that last minutes and by tens of percent from one second to the next,
so raw seconds from two runs minutes apart differ more than any bound a
change could be held to.  The host is gauged by running units of one of these
computations next to the timed work; a run's time divided by the mean unit
time gauged over that run, times the unit's time on the reference host
(`reference.json`), is the run's time at the reference host's speed.

The units use only Python and numpy, none of critlat, so no change to the
program moves them.  Each follows the kind of work of the workloads it
gauges, because the host's slow phases slow kinds of work unequally:

- `narrow`: the interpreter and many numpy calls on 256 lanes, as in the VI
  waves of the strips and the scalar lane.  Its arrays are tiny, so it runs
  inside the passes, from a timer signal, without raising the process's
  peak memory: a strip pass lasts about 25 s, longer than the host keeps one
  speed, and only samples spread over it follow it.
- `wide`: a lattice sum over fresh arrays of 2.2 million grid points, each
  array too large to be reused from the heap, so that a third of its time is
  spent faulting in fresh pages as in the program's sums; about 130 MB at its
  peak, well below the 500 MB of the lattice sums it gauges, but too much to
  add to theirs, so it runs between passes.  Then interpreted complex
  arithmetic, as in orbit iteration.
"""

from __future__ import annotations

import signal
import time

import numpy as np


def _interpreted(n: int) -> float:
    x, s = 0.3 + 0.2j, 0.0
    for _ in range(n):
        x = (x * x + 0.1j) / (abs(x) + 1.0)
        s += abs(x)
    return s


def _narrow() -> float:
    a = np.linspace(1.0, 2.0, 256)
    for _ in range(1500):
        b = np.exp(-a) * a + np.sqrt(a)
        a = np.minimum(np.maximum(b, 1.0), 2.0)
    return _interpreted(20000) + float(a.sum())


def _wide() -> float:
    j = np.arange(-740, 741)
    J, K = np.meshgrid(j, j, indexing="ij")
    alpha = J * (1.0 + 0.0j) + K * (0.5 + 0.8660254037844386j)
    del J, K
    alpha = alpha[alpha != 0]
    terms = alpha + 0.05j
    terms *= terms
    np.reciprocal(terms, out=terms)
    inv = alpha * alpha
    np.reciprocal(inv, out=inv)
    terms -= inv
    return _interpreted(30000) + abs(complex(np.sum(terms)))


# kind -> (unit, whether it is small enough to run inside a pass)
UNITS = {"narrow": (_narrow, True), "wide": (_wide, False)}


class Gauge:
    """The mean time of one kind of unit over the samples taken in a run."""

    def __init__(self, kind: str):
        self._unit, self.in_pass = UNITS[kind]
        self.seconds = 0.0
        self.units = 0

    def _run_unit(self) -> float:
        t = time.perf_counter()
        self._unit()
        dt = time.perf_counter() - t
        self.seconds += dt
        self.units += 1
        return dt

    def inside(self, fn, every_s: float):
        """Call fn() and run one unit after each `every_s` seconds of it, from
        a timer signal, so that the samples spread over the whole call.
        Returns fn's result and its seconds without the units'."""
        inside = 0.0
        active = True

        def tick(signum, frame):
            nonlocal inside
            if active:
                inside += self._run_unit()
                signal.setitimer(signal.ITIMER_REAL, every_s)

        previous = signal.signal(signal.SIGALRM, tick)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, every_s)
        try:
            out = fn()
        finally:
            active = False
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return out, wall - inside

    def sample(self, seconds: float) -> None:
        """Run units for about `seconds`, and at least one."""
        start = time.perf_counter()
        self._run_unit()
        while time.perf_counter() - start < seconds:
            self._run_unit()

    @property
    def unit_s(self) -> float:
        return self.seconds / self.units
