"""Host speed, measured by a fixed pure-Python loop.

The benchmark runs on shared virtual machines whose speed drifts: on the
2-vCPU machine the benchmark was built on, the same pass took up to 1.5x
longer in one minute than in another, and every kind of Python work slowed
alike.  Timed passes are therefore bracketed by this loop, and each pass
time is scaled by REFERENCE_S / (loop time around it): the result is the
time the pass would take on a host where the loop takes REFERENCE_S.  The
loop mixes the engine's kinds of work (big-integer modular arithmetic,
small-integer loops, tuples, dicts, fractions) and never calls the engine.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the loop's median time on the machine above when the reference answers
# were pinned
REFERENCE_S = 0.044


def _loop() -> int:
    m = 10**40 + 7
    x = 3
    table = {}
    for i in range(45000):
        x = (x * x + i) % m
        table[x & 1023] = (x >> 64, i)
    forms = 0
    for a in range(1, 190):
        for b in range(-a, a + 1):
            if (b * b + 7) % (4 * a) == 0:
                forms += 1
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i, i * i + 1)
    return forms + len(table) + acc.denominator % 7


def loop_seconds() -> float:
    """Wall time of one run of the loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def scale() -> float:
    """Factor that turns a wall time measured now into reference seconds."""
    return REFERENCE_S / loop_seconds()
