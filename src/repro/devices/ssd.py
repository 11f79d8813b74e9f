"""Off-the-shelf commodity SSD baseline (Sections 5, 7.1).

The paper compares against "a commercially available M.2 mPCIe SSD, whose
performance, for 8KB accesses, was limited to 600MB/s", and observes in
Figure 18 that its *random* performance is poor while artificially
sequential access "improved dramatically, sometimes matching throttled
BlueDBM.  This suggests that the Off-the-shelf SSD may be optimized for
sequential accesses."

The model captures exactly that asymmetry: a sequential-detecting
prefetcher serves runs at the device's full 600 MB/s, while random pages
pay a flash translation + mapping penalty that roughly halves sustained
throughput; a bounded NVMe-style queue limits parallelism.  Payloads are
real bytes so applications can run against it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict

from ..sim import Resource, Simulator, units

__all__ = ["CommoditySSD"]


class CommoditySSD:
    """A block-addressed commodity SSD with hidden internal management."""

    #: Sequential (prefetched) and random media rates.
    SEQ_GBS = 0.6
    RAND_GBS = 0.3
    #: Random-access FTL lookup / chip-conflict penalty.
    LATENCY_NS = 120 * units.US
    #: NVMe queue slots.
    QUEUE_DEPTH = 32

    def __init__(self, sim: Simulator, page_size: int = 8192):
        self.sim = sim
        self.page_size = page_size
        self._queue = Resource(sim, capacity=self.QUEUE_DEPTH,
                               name="nvme-queue")
        self._media = Resource(sim, capacity=1, name="ssd-media")
        self._pages: Dict[int, bytes] = {}
        # Multi-stream sequential detection: real devices track several
        # concurrent readahead streams (NCQ), so interleaved per-thread
        # sequential scans still hit the prefetcher.
        self._recent: "deque[int]" = deque(maxlen=64)
        self._recent_set: set = set()

    def _note_access(self, page: int) -> None:
        if len(self._recent) == self._recent.maxlen:
            self._recent_set.discard(self._recent[0])
        self._recent.append(page)
        self._recent_set.add(page)

    # -- functional contents -------------------------------------------------
    def store(self, page: int, data: bytes) -> None:
        """Populate a page without simulated time (test/bench setup)."""
        if len(data) > self.page_size:
            raise ValueError("data exceeds page size")
        self._pages[page] = data + b"\x00" * (self.page_size - len(data))

    # -- timed I/O (DES generators) --------------------------------------------
    def read(self, page: int):
        """Read one page -> bytes.

        Consecutive page numbers hit the prefetcher and stream at the
        sequential rate; anything else pays the random-access rate.
        """
        if page < 0:
            raise ValueError(f"negative page {page}")
        yield self._queue.request()
        try:
            sequential = (page - 1) in self._recent_set
            self._note_access(page)
            if sequential:
                # The prefetcher already staged this page: the request
                # streams straight out of the device buffer.
                yield self._media.request()
                try:
                    yield self.sim.timeout(
                        units.transfer_ns(self.page_size, self.SEQ_GBS))
                finally:
                    self._media.release()
            else:
                # FTL lookup / chip-conflict penalty on random access.
                yield self.sim.timeout(self.LATENCY_NS // 2)
                yield self._media.request()
                try:
                    yield self.sim.timeout(
                        units.transfer_ns(self.page_size, self.RAND_GBS))
                finally:
                    self._media.release()
                yield self.sim.timeout(self.LATENCY_NS // 2)
        finally:
            self._queue.release()
        return self._pages.get(page, b"\x00" * self.page_size)
