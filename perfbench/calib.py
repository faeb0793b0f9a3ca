"""The host-speed probe timed next to every operation.

The benchmark shares its host with other tenants, and while they run
the same Python code takes up to about 1.7 times as long, in phases of
seconds to minutes.  :func:`calibrate` times a fixed loop of masked
dict lookups, the kind of work the tuple-space scan does, right before
each operation.  An operation's cost in ``cal`` is its host time over
that probe's time: both slow down together, so the ratio stays put
while the host's load moves, and it moves only when the program's own
work does.
"""

from __future__ import annotations

import time

#: the probe's lookup tables: 32 masks, each over a 64-entry dict
_MASKS = tuple((1 << (4 + i % 12)) - 1 for i in range(32))
_TABLES = tuple({(i * 7919 + j * 104729) & 0xFFFF: j for j in range(64)}
                for i in range(32))

#: probe keys per call: about 0.2 ms of host time on a 2.1 GHz Xeon
_KEYS = 40


def calibrate() -> float:
    """Host seconds of one pass of the fixed probe loop."""
    clock = time.perf_counter
    begin = clock()
    hits = 0
    for key in range(_KEYS):
        for mask, table in zip(_MASKS, _TABLES):
            if ((key * 2654435761) & mask) in table:
                hits += 1
    return clock() - begin
