"""A fixed pure-Python reference loop, timed between operations, that
measures how fast the current core runs Python at that moment.

Shared machines drift: the same run can take 25 percent longer a minute
later because of other tenants, which would swamp any change a benchmark is
meant to detect.  This loop is timed in the same process, interleaved with
the workload, and ``mean(loop ms) / NOMINAL_MS`` over the samples taken
during an operation or just around it is that operation's speed factor.
Each operation's time is divided by its factor, so end-to-end metrics read
as on a machine that runs the loop in exactly NOMINAL_MS.  The loop does the
kind of work the library does (integer bit operations, small dicts and
lists, calls) and never touches the library.  Each sample runs the loop
twice and times the second pass, and the loop's data stays small, so what
the workload left in the caches does not change the timing much.  The
garbage collector is off during a sample, so a sample never collects what
the interrupted operation allocated.
"""

from __future__ import annotations

import gc
import time

NOMINAL_MS = 1.3  # the loop's time on the machine of perfbench/baseline.json


def _work() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(3000):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= x.bit_count() << (i & 7)
        table[x & 63] = i
        if not i & 15:
            acc += len(sorted(table)[:8])
    return acc


def reference_ms() -> float:
    """Milliseconds the reference loop takes right now, caches warm."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        start = time.perf_counter()
        _work()
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()
