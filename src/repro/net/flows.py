"""Synthetic CAIDA-like traces (the Figure 14 workload).

The paper replays a CAIDA ISP-backbone trace (chunks of ~8.9 M packets
and ~370 K flows per 20 s).  That trace is not redistributable, so we
generate synthetic traces with the statistics that matter for the
experiment: a heavy-tailed flow-size distribution (a few elephants
carrying most bytes, a long tail of mice) and randomly interleaved
packet arrivals.

Flow sizes are drawn from a Pareto distribution (shape ~1.2, the
commonly reported Internet flow-size tail) with the packet count
normalized to the requested totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np


@dataclass
class TraceConfig:
    """Parameters of a synthetic trace.

    Defaults are a ~100x downscale of the paper's 20 s CAIDA chunk
    (8.9 M packets / 370 K flows) so benches run in seconds; scale up
    with ``packets=8_900_000, flows=370_000`` to match the paper.
    """

    packets: int = 90_000
    flows: int = 3_700
    pareto_shape: float = 1.2
    mean_packet_bytes: int = 700
    duration_us: float = 200_000.0
    seed: int = 2020


@dataclass
class Trace:
    """Packet trace as parallel per-field arrays."""

    times_us: np.ndarray  # float64, sorted
    src_ips: np.ndarray  # uint32 (per-sender statistics, like Poseidon)
    sizes: np.ndarray  # uint32 bytes

    def __len__(self) -> int:
        return len(self.times_us)

    def true_flow_sizes(self) -> dict:
        """Ground-truth bytes per source (what estimators approximate)."""
        totals = {}
        for src, size in zip(self.src_ips.tolist(), self.sizes.tolist()):
            totals[src] = totals.get(src, 0) + size
        return totals

    def iter_packets(self) -> Iterator[Tuple[float, int, int]]:
        yield from zip(
            self.times_us.tolist(), self.src_ips.tolist(), self.sizes.tolist()
        )


def synthetic_trace(config: TraceConfig = None) -> Trace:
    """Generate a heavy-tailed packet trace."""
    config = config or TraceConfig()
    rng = np.random.default_rng(config.seed)

    # Heavy-tailed packets-per-flow: Pareto, normalized to the totals.
    weights = rng.pareto(config.pareto_shape, config.flows) + 1.0
    weights /= weights.sum()
    per_flow = np.maximum(1, np.round(weights * config.packets)).astype(np.int64)

    # Assign each flow a distinct "source IP" in 10.0.0.0/8.
    flow_ips = (0x0A000000 + rng.choice(
        np.arange(1, 1 << 24), size=config.flows, replace=False
    )).astype(np.uint64)

    src_ips = np.repeat(flow_ips, per_flow)
    total = len(src_ips)

    # Packet sizes: bimodal (small ACK-ish + large MTU-ish), averaging
    # near mean_packet_bytes, like backbone traces.
    large = rng.random(total) < (config.mean_packet_bytes - 64) / (1500 - 64)
    sizes = np.where(large, 1500, 64).astype(np.uint32)

    # Random interleaving with uniform arrivals across the window.
    order = rng.permutation(total)
    src_ips = src_ips[order].astype(np.uint32)
    sizes = sizes[order]
    times = np.sort(rng.random(total)) * config.duration_us

    return Trace(times_us=times, src_ips=src_ips, sizes=sizes)


@dataclass
class Microburst:
    """One congestion event: a burst of elevated utilization."""

    start_us: float
    duration_us: float
    utilization: float


def microburst_schedule(
    horizon_us: float = 1_000_000.0,
    bursts_per_second: float = 2_000.0,
    short_fraction: float = 0.9,
    short_max_us: float = 200.0,
    long_max_us: float = 5_000.0,
    seed: int = 7,
) -> list:
    """Synthetic congestion-event schedule matching the paper's
    motivation: "90% of continuous periods of high utilization lasted
    for less than 200 us" [57].

    Returns a list of :class:`Microburst` sorted by start time.
    """
    rng = np.random.default_rng(seed)
    count = max(1, int(horizon_us / 1e6 * bursts_per_second))
    starts = np.sort(rng.random(count)) * horizon_us
    bursts = []
    for start in starts.tolist():
        if rng.random() < short_fraction:
            duration = rng.uniform(10.0, short_max_us)
        else:
            duration = rng.uniform(short_max_us, long_max_us)
        bursts.append(
            Microburst(start, duration, rng.uniform(0.8, 1.0))
        )
    return bursts


def trace_stats(trace: Trace) -> dict:
    """Summary statistics (used by tests and EXPERIMENTS.md)."""
    totals = trace.true_flow_sizes()
    sizes = np.array(sorted(totals.values()))
    top_1pct = sizes[int(len(sizes) * 0.99):].sum()
    return {
        "packets": len(trace),
        "flows": len(totals),
        "bytes": int(trace.sizes.sum()),
        "top1pct_byte_share": float(top_1pct / sizes.sum()),
    }
