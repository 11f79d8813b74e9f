"""PCIe link model (Connectal Gen 1 endpoint, Sections 5 and 5.3).

The link is full duplex with asymmetric measured bandwidth: 1.6 GB/s
device-to-host and 1.0 GB/s host-to-device.  Each direction serializes
transfers; multiple DMA engines allow several outstanding requests to
queue without software involvement, but wire time is what bounds
throughput — exactly the ceiling visible in Figure 13's Host-Local bar.
"""

from __future__ import annotations

from typing import Dict

from ..sim import Resource, Simulator, units
from .config import HostConfig

__all__ = ["PCIeLink"]


class PCIeLink:
    """The host <-> storage-device link."""

    def __init__(self, sim: Simulator, config: HostConfig):
        self.sim = sim
        self.config = config
        self._to_host_wire = Resource(sim, capacity=1, name="pcie-d2h")
        self._to_dev_wire = Resource(sim, capacity=1, name="pcie-h2d")
        self._read_engines = Resource(sim, capacity=config.dma_engines,
                                      name="dma-read-engines")
        self._write_engines = Resource(sim, capacity=config.dma_engines,
                                       name="dma-write-engines")
        #: Wire time per transfer size, one map per direction: a link
        #: sees a handful of sizes (pages, coalesced commands).
        self._to_host_ns: Dict[int, int] = {}
        self._to_dev_ns: Dict[int, int] = {}

    def device_to_host(self, num_bytes: int):
        """DMA ``num_bytes`` from the device into host DRAM (generator)."""
        if num_bytes < 0:
            raise ValueError("negative transfer size")
        wire_ns = self._to_host_ns.get(num_bytes)
        if wire_ns is None:
            wire_ns = self._to_host_ns[num_bytes] = units.transfer_ns(
                num_bytes, self.config.pcie_dev_to_host_gbs)
        yield self._read_engines.request()
        try:
            yield self._to_host_wire.request()
            try:
                yield self.sim.timeout(wire_ns)
            finally:
                self._to_host_wire.release()
            yield self.sim.timeout(self.config.pcie_latency_ns)
        finally:
            self._read_engines.release()

    def host_to_device(self, num_bytes: int):
        """DMA ``num_bytes`` from host DRAM to the device (generator)."""
        if num_bytes < 0:
            raise ValueError("negative transfer size")
        wire_ns = self._to_dev_ns.get(num_bytes)
        if wire_ns is None:
            wire_ns = self._to_dev_ns[num_bytes] = units.transfer_ns(
                num_bytes, self.config.pcie_host_to_dev_gbs)
        yield self._write_engines.request()
        try:
            yield self._to_dev_wire.request()
            try:
                yield self.sim.timeout(wire_ns)
            finally:
                self._to_dev_wire.release()
            yield self.sim.timeout(self.config.pcie_latency_ns)
        finally:
            self._write_engines.release()
