"""Machine-speed probe.

On a shared host the speed of one core drifts between states that differ
by up to half again, for seconds at a time, which swamps the differences
a benchmark is meant to show.  The probe is a fixed piece of pure-Python
work (rational arithmetic and a list sort, like the program's own inner
loops) that is timed right before and right after every measured step.
A step's corrected time is its wall time scaled by ``REF_S`` over the
probe time around it: the time the step would have taken with the host in
its reference state.  The probe never calls the program, so a change to
the program cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Fastest probe time on the reference host (2-vCPU Intel Xeon VM, 2.1 GHz,
# CPython 3.11).  Corrected times equal wall times when the probe reads this.
REF_S = 0.0016


def _work() -> float:
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i % 7 + 1, i + 3) * Fraction(3, i + 1)
    sorted((i * 7919) % 1009 for i in range(2000))
    return time.perf_counter() - start


def probe() -> float:
    """Probe time now: the faster of two runs."""
    return min(_work(), _work())

