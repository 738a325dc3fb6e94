"""Simulated PCIe channel with request pipelining.

The synchronous :class:`~repro.switch.driver.Driver` charges every op
``prep + device + pcie`` back to back on the shared clock.  The channel
model here splits those phases the way the paper's Fig. 12 analysis
does (and :func:`repro.agent.legacy.legacy_latencies` assumes):

- **software prep** runs on the *requester's* CPU; each session has its
  own prep pipeline (``cpu_free_us``) that can run ahead while the
  device is busy with someone else's op;
- the **device-exclusive window** is the only globally serialized
  resource (``device_free_us``): one op's ASIC access at a time,
  exactly the ``excl_start_us``/``excl_end_us`` window of
  :class:`~repro.switch.driver.OpRecord`;
- the **PCIe return transfer** overlaps the next op's device window --
  it delays the *completion* the requester observes, not the device.

Uncontended, a blocking op therefore costs exactly what the
synchronous driver charges (``prep + device + pcie`` with the same
exclusive window); pipelined submission overlaps prep and completion
transfers with device windows, so a saturating client is bounded by
device cost alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass
class ChannelSchedule:
    """Resolved timing of one op on the channel."""

    prep_start_us: float
    prep_end_us: float
    excl_start_us: float
    excl_end_us: float
    done_us: float


class PipelinedChannel:
    """The shared device-exclusive resource plus per-session CPU state.

    ``window`` bounds the number of admitted-but-incomplete requests
    (the pipelining depth); admission control itself lives in the
    service -- the channel only prices and reserves.
    """

    def __init__(self, window: int = 8):
        self.window = window
        self.device_free_us = 0.0
        #: Total device-exclusive time reserved (utilization metric).
        self.device_busy_us = 0.0
        self.reservations = 0

    def reserve(
        self,
        now_us: float,
        prep_ready_us: float,
        device_us: float,
        pcie_us: float,
    ) -> ChannelSchedule:
        """Reserve the next device-exclusive window.

        ``prep_ready_us`` is when the requester's software prep for
        this op completes (its CPU pipeline may run ahead of ``now``).
        The device window opens at the latest of *now*, prep
        completion, and the device becoming free; completion lands one
        PCIe return transfer after the window closes.
        """
        excl_start, excl_end = self.claim(now_us, prep_ready_us, device_us)
        return ChannelSchedule(
            prep_start_us=prep_ready_us,
            prep_end_us=prep_ready_us,
            excl_start_us=excl_start,
            excl_end_us=excl_end,
            done_us=excl_end + pcie_us,
        )

    def claim(
        self, now_us: float, prep_ready_us: float, device_us: float
    ) -> Tuple[float, float]:
        """Claim the next device-exclusive window and return its
        ``(start, end)`` -- :meth:`reserve` without the completion
        record, for blocking ops that only need the window."""
        excl_start = max(now_us, prep_ready_us, self.device_free_us)
        excl_end = excl_start + device_us
        self.device_free_us = excl_end
        self.device_busy_us += device_us
        self.reservations += 1
        return excl_start, excl_end

    def utilization(self, elapsed_us: float) -> float:
        """Fraction of ``elapsed_us`` the device was reserved."""
        if elapsed_us <= 0:
            return 0.0
        return min(1.0, self.device_busy_us / elapsed_us)
