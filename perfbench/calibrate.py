"""Host-speed calibration for a shared, noisy machine.

The benchmark's host rates are divided by how fast this fixed
pure-Python loop runs right around each measurement.  On a shared VM
the same code runs up to 2x slower for seconds at a time; the
calibration loop slows down with it, so the ratio stays steady while a
change to the program (which the loop does not touch) still moves it.

A *reference second* is a host second rescaled so that one calibration
takes exactly ``REFERENCE_S``: ``ref_s = host_s * REFERENCE_S / calib_s``.
"""

from __future__ import annotations

import heapq
import time

#: Steps of the calibration loop (about 40 ms on a 2 GHz Xeon vCPU).
STEPS = 20_000
#: Nominal duration of one calibration: the length of the reference
#: second's yardstick.
REFERENCE_S = 0.04


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int):
        self.key = key
        self.weight = weight


def _step(table, heap, item: _Item, index: int) -> _Item:
    key = (index * 7919) % 1009
    table[key] = table.get(key, 0) + item.weight
    heapq.heappush(heap, (key + 0.5, index))
    return _Item(key, index & 7)


def calibration_s() -> float:
    """Wall time of one calibration loop: dict, heap, call and
    small-object work, the kind the simulator's event loop does."""
    table = {}
    heap = []
    item = _Item(0, 1)
    start = time.perf_counter()
    for index in range(STEPS):
        item = _step(table, heap, item, index)
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


def reference_s(host_s: float, calib_s: float) -> float:
    """``host_s`` expressed in reference seconds."""
    return host_s * REFERENCE_S / calib_s
