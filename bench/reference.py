"""A fixed pure-Python loop that gauges how fast the machine runs right now.

The measuring machine is a share of a busy host, and its speed drifts by up
to 2x over seconds to minutes (see "Noise" in README.md).  The harness times
this loop next to every pass and every set-up sample, and reports times
rescaled to a machine on which the loop takes REFERENCE_S seconds.  The loop
uses what the program under test spends its time on (tuples, dicts, sets,
frozensets, sorting, string formatting) and nothing from `probdatalog`, so a
change to the program cannot change it.
"""

from __future__ import annotations

import gc
import time

# Seconds the loop takes on the reference machine.  Chosen once, close to
# what the loop takes on the 2-CPU measuring machine; fixed for good, so
# that figures from different commits stay comparable.
REFERENCE_S = 0.040


def reference_loop() -> int:
    index: dict = {}
    for i in range(32000):
        key = (i * 7919 % 400, i * 104729 % 37)
        index.setdefault(key[0], set()).add(key)
    total = 0
    merged: set = set()
    for bucket in index.values():
        total += len(sorted(bucket))
        merged |= frozenset(bucket)
    names = {f"v{a}_{b}": a + b for a, b in merged}
    return total + len(merged) + len(names)


def time_reference() -> float:
    """Wall time of one reference loop, with the collector off so that the
    heap the program leaves behind does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
