"""A fixed pure-Python load that gauges how fast the machine runs now.

On a shared machine other tenants slow a thread by 1.5x to 2.6x, for a
fraction of a second to minutes at a time, and a whole run can fall inside
such a spell.  ``Probe`` times ``spin``, a fixed load that does not touch
the library, every ``EVERY_S`` seconds between operations, and right before
and after each set-up.  Each operation's time is divided by the slowdown
seen around it (``Probe.speed``: the mean of the probes within ``WINDOW_S``
of the operation, against ``REFERENCE_S``), and each set-up's by the mean of
its two probes, so that the end-to-end timings read as times on the
unloaded machine.  A change to the program moves the operations and not
``spin``, so it shows in full.  Timed alternately, ``spin`` and an sl(3)
pipeline kept a ratio within 5% of 4.7 while both ran 1.6x slower and back
every few seconds.

``spin`` does what the pure kernel and ``polyring`` do most: sorted term
lists merged with integer coefficients, exponent tuples added, contents
taken with ``gcd``, and ``Fraction`` coefficients in dicts.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from math import gcd
from operator import add

# spin()'s fastest time on the machine of the reference figures when it
# is not slowed (Python 3.11.7, pure engine, an Intel Xeon core)
REFERENCE_S = 0.0045
# time between two probes, and how far around an operation its probes count
EVERY_S = 0.25
WINDOW_S = 1.0
# spins in one probe; the probe keeps the fastest
BURST = 2

_NVARS = 6


def _terms(seed: int, n: int) -> list:
    out = {}
    x = seed
    for _ in range(n):
        x = (x * 1103515245 + 12345) % 2147483648
        exp = tuple((x >> (3 * i)) % 4 for i in range(_NVARS))
        out[exp] = (x % 2001) - 1000 or 1
    return sorted(((sum(e), e), e, c) for e, c in out.items())[::-1]


_A = _terms(1, 60)
_B = _terms(2, 60)
_SHIFTS = [((1, s), s) for s in (tuple((k >> i) & 1 for i in range(_NVARS)) for k in range(1, 9))]


def _combine(ca, a, cb, b):
    out = []
    i, j, la, lb = 0, 0, len(a), len(b)
    while i < la and j < lb:
        ka, kb = a[i][0], b[j][0]
        if ka > kb:
            out.append((ka, a[i][1], ca * a[i][2]))
            i += 1
        elif kb > ka:
            out.append((kb, b[j][1], cb * b[j][2]))
            j += 1
        else:
            c = ca * a[i][2] + cb * b[j][2]
            if c:
                out.append((ka, a[i][1], c))
            i += 1
            j += 1
    out.extend((t[0], t[1], ca * t[2]) for t in a[i:])
    out.extend((t[0], t[1], cb * t[2]) for t in b[j:])
    return out


def spin() -> int:
    """The fixed load; returns a checksum so that none of it is skipped."""
    h = _A
    for (dk, de) in _SHIFTS:
        for _ in range(3):
            shifted = [((k[0] + dk[0], tuple(map(add, k[1], de))), tuple(map(add, e, de)), c) for k, e, c in _B]
            h = _combine(7, h, -3, shifted)
            g = 0
            for t in h:
                g = gcd(g, t[2])
                if g == 1:
                    break
            if g > 1:
                h = [(k, e, c // g) for k, e, c in h]
    acc: dict = {}
    for k, e, c in h[:120]:
        acc[e[:3]] = acc.get(e[:3], Fraction(0)) + Fraction(c % 97 + 1, len(e) + c % 5 + 1)
    return len(h) + sum(v.numerator % 1000 for v in acc.values())


class Probe:
    """Probes taken between operations, as (time, fastest spin) pairs."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []
        self.checksum = spin()

    def take(self) -> float:
        """Take a probe now; returns its slowdown against the reference."""
        best = float("inf")
        for _ in range(BURST):
            t0 = time.perf_counter()
            checksum = spin()
            t1 = time.perf_counter()
            if checksum != self.checksum:
                raise RuntimeError("calibration load returned a different checksum")
            best = min(best, t1 - t0)
        self.probes.append((t1, best))
        return best / REFERENCE_S

    def maybe(self) -> None:
        """Take a probe if the last one is ``EVERY_S`` old."""
        if not self.probes or time.perf_counter() - self.probes[-1][0] >= EVERY_S:
            self.take()

    def speed(self, start: float, end: float) -> float:
        """Slowdown against the reference over [start, end]: the mean of
        the probes within ``WINDOW_S`` of it, or of the whole run if none
        is."""
        near = [s for t, s in self.probes if start - WINDOW_S <= t <= end + WINDOW_S]
        return statistics.fmean(near or [s for _, s in self.probes]) / REFERENCE_S
