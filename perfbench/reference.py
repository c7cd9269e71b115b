"""A fixed pure-Python loop that measures how fast the host runs right now.

On a shared host a busy process can run at speeds that drift by 2x over tens
of seconds, as other tenants come and go.  The benchmark times this loop next
to each op and scales the op's wall time by REFERENCE_S / (the loop's time):
a normalized second is the time the op would take on a host that runs the
loop in REFERENCE_S.  The loop uses nothing of the package, so a change to
the package cannot move it, and it does the kind of work the package does
(integer arithmetic, sets, dicts, small frozensets) so that it slows as the
package does.
"""
from __future__ import annotations

import statistics
import time

#: the loop's time on an unloaded 2-vCPU Xeon under Python 3.11; it sets the
#: scale of normalized seconds and nothing else
REFERENCE_S = 0.002
_STEPS = 6000


def _loop() -> int:
    total, seen, last = 0, set(), {}
    for i in range(_STEPS):
        total += i * i
        seen.add(i % 97)
        last[i % 101] = total
        if frozenset((i % 7, i % 11)) in seen:
            total -= 1
    return total + len(last)


def reference_seconds() -> float:
    """Wall seconds of one run of the loop."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def speed_factor() -> float:
    """REFERENCE_S over the median of 25 runs of the loop: the factor that
    turns wall seconds measured around this call into normalized seconds."""
    return REFERENCE_S / statistics.median(reference_seconds() for _ in range(25))
