"""DMA engine with per-buffer reorder FIFOs (Section 3.3, Figure 7).

Flash reads arrive interleaved: pages from different buses (or different
remote nodes) complete out of order, but "the DMA engine needs to have
enough contiguous data for a DMA burst before issuing a DMA burst".
BlueDBM solves this with "dual-ported buffer in hardware which has the
semantics of a vector of FIFOs, so that data for each request can be
enqueued into its own FIFO until there is enough data for a burst".

:class:`BurstAssembler` reproduces that structure functionally: producers
enqueue (buffer_index, chunk) in any interleaving; each buffer's FIFO
accumulates privately; a burst is emitted to the PCIe link whenever a
FIFO holds at least one burst worth of data.  Per-buffer data order is
preserved even under full interleaving — the property tests assert it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim import Counter, Simulator, Store
from .config import HostConfig
from .pcie import PCIeLink

__all__ = ["BurstAssembler"]


class BurstAssembler:
    """Vector-of-FIFOs burst assembly in front of the PCIe DMA engine."""

    def __init__(self, sim: Simulator, config: HostConfig, pcie: PCIeLink):
        self.sim = sim
        self.config = config
        self.pcie = pcie
        self._fifos: Dict[int, bytearray] = {}
        self._chunks: Dict[int, List[bytes]] = {}
        self.bursts_issued = Counter("dma-bursts")

    def enqueue(self, buffer_index: int, chunk: bytes):
        """Feed ``chunk`` into ``buffer_index``'s FIFO (DES generator).

        Emits DMA bursts for every complete burst now available.  The
        burst transfer time is paid on the shared PCIe link; chunks from
        other buffers may interleave freely between calls.
        """
        fifo = self._fifos.setdefault(buffer_index, bytearray())
        self._chunks.setdefault(buffer_index, []).append(bytes(chunk))
        fifo.extend(chunk)
        burst = self.config.dma_burst_bytes
        while len(fifo) >= burst:
            del fifo[:burst]
            self.bursts_issued.add()
            yield from self.pcie.device_to_host(burst)

    def flush(self, buffer_index: int):
        """Push out any sub-burst tail for ``buffer_index`` (generator)."""
        fifo = self._fifos.get(buffer_index)
        if fifo:
            tail = len(fifo)
            del fifo[:]
            self.bursts_issued.add()
            yield from self.pcie.device_to_host(tail)
        else:
            yield self.sim.timeout(0)

    def assembled(self, buffer_index: int) -> bytes:
        """All data ever enqueued for a buffer, in FIFO order.

        This is what lands in the host's page buffer; tests compare it
        against the expected page image to prove interleaving never mixes
        streams.
        """
        return b"".join(self._chunks.get(buffer_index, []))

    def reset(self, buffer_index: int) -> None:
        """Recycle a buffer's FIFO state when its page buffer is freed."""
        self._fifos.pop(buffer_index, None)
        self._chunks.pop(buffer_index, None)
