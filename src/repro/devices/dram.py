"""DRAM page store: the RAMCloud-style baseline tier.

"One approach ... is ram cloud, where the cluster has enough collective
DRAM to accommodate the entire dataset in DRAM" (Section 1).  The H-DRAM
configurations of Figures 16-17 and 20 read pages straight from host
memory: ~100 ns access latency and tens of GB/s of shared bandwidth —
fast, but a shared resource that saturates under many threads, and
ruinously expensive per GB compared to flash.
"""

from __future__ import annotations

from typing import Dict

from ..sim import Resource, Simulator, units

__all__ = ["DRAMStore"]


class DRAMStore:
    """A page-granular in-memory store with bandwidth contention."""

    #: Fixed access latency per page.
    LATENCY_NS = 100

    def __init__(self, sim: Simulator, page_size: int = 8192,
                 bandwidth_gbs: float = 40.0):
        if bandwidth_gbs <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.page_size = page_size
        self.bandwidth_gbs = bandwidth_gbs
        self._bus = Resource(sim, capacity=1, name="dram-bus")
        self._pages: Dict[int, bytes] = {}

    def store(self, page: int, data: bytes) -> None:
        """Populate a page without simulated time (test/bench setup)."""
        if len(data) > self.page_size:
            raise ValueError("data exceeds page size")
        self._pages[page] = data + b"\x00" * (self.page_size - len(data))

    def read(self, page: int):
        """Read one page -> bytes (DES generator)."""
        if page < 0:
            raise ValueError(f"negative page {page}")
        yield self.sim.timeout(self.LATENCY_NS)
        yield self._bus.request()
        try:
            yield self.sim.timeout(
                units.transfer_ns(self.page_size, self.bandwidth_gbs))
        finally:
            self._bus.release()
        return self._pages.get(page, b"\x00" * self.page_size)
