"""Hard disk baseline.

Figures 17 and 21 compare against spinning disks: "DRAM + 5% Disk"
collapses nearest-neighbour throughput, and grep on HDD is I/O bound at
~1/7.5 of the in-store engine's 1.1 GB/s.  The model is the classic
seek + rotate + transfer decomposition with a single actuator: random
page reads pay ~12 ms of mechanical positioning; sequential runs stream
at the platter rate.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim import Resource, Simulator, units

__all__ = ["HardDisk"]


class HardDisk:
    """A 7200-RPM-class disk with one head assembly."""

    #: Average seek, average rotational delay and platter rate.
    SEEK_NS = 8 * units.MS
    ROTATIONAL_NS = 4 * units.MS
    TRANSFER_GBS = 0.15

    def __init__(self, sim: Simulator, page_size: int = 8192):
        self.sim = sim
        self.page_size = page_size
        self._actuator = Resource(sim, capacity=1, name="hdd-actuator")
        self._pages: Dict[int, bytes] = {}
        self._head_at: Optional[int] = None

    def store(self, page: int, data: bytes) -> None:
        """Populate a page without simulated time (test/bench setup)."""
        if len(data) > self.page_size:
            raise ValueError("data exceeds page size")
        self._pages[page] = data + b"\x00" * (self.page_size - len(data))

    def read(self, page: int):
        """Read one page -> bytes (DES generator).

        A page adjacent to the head streams; anything else seeks.
        """
        if page < 0:
            raise ValueError(f"negative page {page}")
        yield self._actuator.request()
        try:
            if self._head_at is None or page != self._head_at + 1:
                yield self.sim.timeout(self.SEEK_NS + self.ROTATIONAL_NS)
            self._head_at = page
            yield self.sim.timeout(
                units.transfer_ns(self.page_size, self.TRANSFER_GBS))
        finally:
            self._actuator.release()
        return self._pages.get(page, b"\x00" * self.page_size)

    def write(self, page: int, data: bytes):
        """Write one page (DES generator); same mechanics as read."""
        if len(data) > self.page_size:
            raise ValueError("data exceeds page size")
        yield self._actuator.request()
        try:
            if self._head_at is None or page != self._head_at + 1:
                yield self.sim.timeout(self.SEEK_NS + self.ROTATIONAL_NS)
            self._head_at = page
            yield self.sim.timeout(
                units.transfer_ns(self.page_size, self.TRANSFER_GBS))
        finally:
            self._actuator.release()
        self.store(page, data)
