"""Machine-speed reference for a shared host.

The speed of the machine this benchmark was defined on drifts by a
quarter and more within a minute, as other tenants come and go.  Every
timed sample is therefore paired with a fixed piece of pure-Python work
timed right after it, in the same phase of the machine, and scaled to a
machine on which that work takes ``REFERENCE_MS``.  The work allocates
and hashes small objects and adds fractions, like the program does: a
loop over small integers alone tracks the program's slow phases less
closely.
"""

import time
from fractions import Fraction

REFERENCE_MS = 3.5


def reference_ms() -> float:
    started = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i % 5 + 2)
    rows = sorted((i * 7919 % 1009, (i, str(i))) for i in range(3000))
    groups = {}
    for key, value in rows:
        groups.setdefault(key, []).append(value)
    return (time.perf_counter() - started) * 1e3


def scaled(ms: float, reference: float) -> float:
    """A time measured next to a reference of ``reference`` ms, as it
    would read where the reference takes REFERENCE_MS."""
    return ms * REFERENCE_MS / reference
