"""Measurement utilities: counters, latency histograms, bandwidth ledgers.

Benchmarks reproduce the paper's figures from these collectors; they are
deliberately simple so a reader can audit what each reported number means.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .core import Simulator
from .units import bandwidth_gbytes

__all__ = ["Counter", "LatencyHistogram", "BandwidthLedger",
           "UtilizationTracker"]


class Counter:
    """A named monotonically-increasing counter."""

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter decrement not allowed ({amount})")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class LatencyHistogram:
    """Log₂-bucketed latency histogram with bounded memory.

    Keeping every sample would be exact but grow with the workload; the
    per-stage tracing of heavy multi-tenant runs wants O(1)-memory
    percentiles instead.  Samples land in power-of-two
    nanosecond buckets (bucket *k* covers ``[2^(k-1), 2^k)``), and
    percentiles linearly interpolate within the winning bucket — at most
    a factor-of-two-wide bracket, plenty for p50/p99 shape assertions.
    """

    MAX_BUCKET = 63  # 2^63 ns ≈ 292 years of simulated time

    def __init__(self, name: str = ""):
        self.name = name
        self.buckets: List[int] = [0] * (self.MAX_BUCKET + 1)
        self.count = 0
        self.total_ns = 0
        self.min_ns: Optional[int] = None
        self.max_ns: Optional[int] = None

    def record(self, latency_ns: int, weight: int = 1) -> None:
        """Record one sample, optionally counted ``weight`` times.

        ``weight > 1`` is how 1-in-N trace sampling keeps aggregate
        counts unbiased: each kept sample stands for ``N`` requests.
        """
        if latency_ns < 0:
            raise ValueError(f"negative latency {latency_ns}")
        index = int(latency_ns).bit_length()
        if index > self.MAX_BUCKET:
            index = self.MAX_BUCKET
        self.buckets[index] += weight
        self.count += weight
        self.total_ns += latency_ns * weight
        if self.min_ns is None or latency_ns < self.min_ns:
            self.min_ns = latency_ns
        if self.max_ns is None or latency_ns > self.max_ns:
            self.max_ns = latency_ns

    @property
    def mean(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated percentile, p in [0, 100] (0 when empty)."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} out of range")
        if not self.count:
            return 0.0
        if self.min_ns == self.max_ns:
            return float(self.min_ns)
        target = (p / 100) * self.count
        seen = 0
        for index, bucket_count in enumerate(self.buckets):
            if not bucket_count:
                continue
            if seen + bucket_count >= target:
                low = 0 if index == 0 else 1 << (index - 1)
                high = 1 << index
                # Clamp the bracket to observed extremes so single-bucket
                # histograms report exact values.
                low = max(low, self.min_ns or 0)
                high = min(high, (self.max_ns or 0) + 1)
                if high <= low:
                    return float(low)
                frac = (target - seen) / bucket_count
                return low + frac * (high - low)
            seen += bucket_count
        return float(self.max_ns or 0)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one."""
        for index, bucket_count in enumerate(other.buckets):
            self.buckets[index] += bucket_count
        self.count += other.count
        self.total_ns += other.total_ns
        if other.min_ns is not None and (self.min_ns is None
                                         or other.min_ns < self.min_ns):
            self.min_ns = other.min_ns
        if other.max_ns is not None and (self.max_ns is None
                                         or other.max_ns > self.max_ns):
            self.max_ns = other.max_ns

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean_ns": self.mean,
            "min_ns": float(self.min_ns or 0),
            "max_ns": float(self.max_ns or 0),
            "p50_ns": self.percentile(50),
            "p99_ns": self.percentile(99),
        }

    def __repr__(self) -> str:
        return (f"LatencyHistogram({self.name!r}, n={self.count}, "
                f"p50≈{self.percentile(50):.0f}ns)")


class BandwidthLedger:
    """Per-tenant bytes serviced, with each tenant's busiest window.

    QoS accounting needs *per-tenant* byte counts, and rate caps are
    checked window by window ("never exceeds rate x window + one
    burst"), so besides each tenant's running total the ledger keeps
    the largest byte count any one fixed simulated-time window saw.
    Windows are aligned to multiples of ``window_ns`` from time zero.
    Simulated time never runs backwards, so only the current window's
    counts are held: once time leaves a window its counts can only have
    raised the peaks.  Iteration order of tenants is first-seen order,
    which is deterministic for a deterministic simulation —
    byte-identical results across repeat runs.
    """

    def __init__(self, sim: Simulator, window_ns: int = 1_000_000,
                 name: str = ""):
        if window_ns < 1:
            raise ValueError(f"window_ns must be >= 1, got {window_ns}")
        self.sim = sim
        self.window_ns = window_ns
        self.name = name
        self.totals: Dict[str, int] = {}
        #: tenant -> the busiest window's byte count so far.
        self.peaks: Dict[str, int] = {}
        self._window = -1
        #: tenant -> bytes within window ``_window``.
        self._current: Dict[str, int] = {}

    def record(self, tenant: str, num_bytes: int) -> None:
        """Charge ``num_bytes`` to ``tenant`` at the current sim time."""
        if num_bytes < 0:
            raise ValueError(f"negative byte count {num_bytes}")
        self.totals[tenant] = self.totals.get(tenant, 0) + num_bytes
        window = self.sim.now // self.window_ns
        if window != self._window:
            self._window = window
            self._current = {}
        current = self._current[tenant] = (
            self._current.get(tenant, 0) + num_bytes)
        if current > self.peaks.get(tenant, -1):
            self.peaks[tenant] = current

    def total_bytes(self, tenant: str) -> int:
        return self.totals.get(tenant, 0)

    def peak_window_bytes(self, tenant: str) -> int:
        """The busiest single window's byte count for ``tenant``."""
        return self.peaks.get(tenant, 0)

    def gbytes_per_sec(self, tenant: str,
                       elapsed_ns: Optional[int] = None) -> float:
        """Tenant bandwidth over the run (or the supplied window)."""
        window = self.sim.now if elapsed_ns is None else elapsed_ns
        return bandwidth_gbytes(self.totals.get(tenant, 0), window)

    def summary(self, elapsed_ns: Optional[int] = None
                ) -> Dict[str, Dict[str, float]]:
        """Per-tenant totals/peak-window/rate, JSON-ready."""
        return {tenant: {
            "bytes": float(total),
            "peak_window_bytes": float(self.peak_window_bytes(tenant)),
            "gbytes_per_sec": self.gbytes_per_sec(tenant, elapsed_ns),
        } for tenant, total in self.totals.items()}

    def __repr__(self) -> str:
        return (f"BandwidthLedger({self.name!r}, tenants={len(self.totals)}, "
                f"window={self.window_ns}ns)")


class UtilizationTracker:
    """Tracks busy time of a component (e.g. a host CPU core).

    Call :meth:`busy` for each busy interval; ``busy_ns`` is the sum.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.busy_ns = 0

    def busy(self, duration_ns: int) -> None:
        if duration_ns < 0:
            raise ValueError(f"negative busy duration {duration_ns}")
        self.busy_ns += duration_ns
