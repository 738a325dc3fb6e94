"""Simulated clock.

All latency numbers in the reproduction are expressed in microseconds
of simulated time.  A single :class:`SimClock` instance is shared by
the switch ASIC, the driver, the Mantis agent, and the discrete-event
network simulator, so cross-component orderings (e.g. "did the table
update commit before this packet entered the pipeline?") are
well-defined.
"""

from __future__ import annotations


class SimClock:
    """A monotonically increasing microsecond clock.

    Listeners registered with :meth:`add_listener` are invoked after
    every advance -- the network simulator uses this to interleave
    packet events with control-plane driver operations at operation
    granularity.
    """

    def __init__(self, start_us: float = 0.0):
        self._now = float(start_us)
        self._listeners = []
        self._notifying = False

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    def add_listener(self, callback) -> None:
        """Register ``callback(now_us)`` to run after each advance."""
        self._listeners.append(callback)

    # ``advance``/``advance_to`` notify listeners inline: every driver
    # op advances the clock, so this is a hot path.  The guard makes
    # notification non-reentrant -- an advance made *by* a listener
    # does not notify again.

    def advance(self, delta_us: float) -> float:
        """Move time forward by ``delta_us`` and return the new time."""
        if delta_us < 0:
            raise ValueError(f"cannot advance clock by {delta_us} us")
        self._now += delta_us
        if self._listeners and not self._notifying:
            self._notifying = True
            try:
                for callback in self._listeners:
                    callback(self._now)
            finally:
                self._notifying = False
        return self._now

    def advance_to(self, time_us: float) -> float:
        """Move time forward to ``time_us`` (no-op if already later)."""
        if time_us > self._now:
            self._now = time_us
            if self._listeners and not self._notifying:
                self._notifying = True
                try:
                    for callback in self._listeners:
                        callback(self._now)
                finally:
                    self._notifying = False
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.3f}us)"
