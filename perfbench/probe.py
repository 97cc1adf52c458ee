"""The probe: a fixed pure-Python task that gauges how fast the core is.

Figures are pass times divided by the probe time measured around them, so
a host that slows every Python program down moves them far less than it
moves raw seconds.  The probe uses no wsrpt code, so a change to the
package cannot change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: Probe time that scales figures back to seconds: a pass whose pass time
#: is N probe times reports N * PROBE_NOMINAL_S seconds.
PROBE_NOMINAL_S = 1e-3


def probe() -> float:
    """Seconds for a fixed pure-Python task that uses no wsrpt code.

    Fraction arithmetic with growing denominators, dict updates and a
    sort: the interpreter work the workloads themselves are made of.  It
    runs right before every timed step, so the run sees how fast this
    core is at the moments the steps run.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    seen: dict[int, int] = {}
    for i in range(1, 300):
        acc += Fraction(i, 7 * i + 3)
        seen[i % 97] = seen.get(i % 97, 0) + i
    sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
    return time.perf_counter() - start
