"""Host-side timing parameters.

Defaults reproduce the paper's measured environment:

* Connectal PCIe Gen 1: "1.6GB/s DMA read to host DRAM bandwidth and
  1GB/s of DMA write from host DRAM bandwidth" (Section 5.3) — i.e.
  device-to-host moves at 1.6 GB/s, host-to-device at 1.0 GB/s.
* 128 page buffers each for reads and writes (Section 3.3).
* Four DMA read engines and four write engines (Section 5.3).
* Xeon host: 24 cores, 50 GB DRAM (Section 5).

Software overheads are the kernel/driver costs that the ISP path skips;
their sum (~20 µs per request) is the "Software" component of Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import units

__all__ = ["HostConfig"]


@dataclass(frozen=True)
class HostConfig:
    """Timing and sizing for one host server + its storage device link."""

    # PCIe / Connectal link
    pcie_dev_to_host_gbs: float = 1.6    # storage reads land in host DRAM
    pcie_host_to_dev_gbs: float = 1.0    # storage writes leave host DRAM
    pcie_latency_ns: int = 1 * units.US  # portal/DMA round-trip setup
    dma_engines: int = 4                 # per direction

    # Page buffers (Section 3.3)
    read_buffers: int = 128
    write_buffers: int = 128

    # RPC + interrupt path
    rpc_ns: int = 1 * units.US           # request portal write
    interrupt_ns: int = 4 * units.US     # completion interrupt + wakeup

    # Kernel/driver software costs per storage request
    syscall_ns: int = 4 * units.US
    driver_ns: int = 10 * units.US

    # Host CPU
    n_cores: int = 24

    def __post_init__(self):
        if self.pcie_dev_to_host_gbs <= 0 or self.pcie_host_to_dev_gbs <= 0:
            raise ValueError("PCIe bandwidths must be positive")
        if self.read_buffers < 1 or self.write_buffers < 1:
            raise ValueError("need at least one page buffer per direction")
        if self.dma_engines < 1:
            raise ValueError("need at least one DMA engine")
        if self.n_cores < 1:
            raise ValueError("need at least one core")

    @property
    def software_request_ns(self) -> int:
        """Per-request kernel-path cost host software pays (ISPs don't)."""
        return self.syscall_ns + self.driver_ns
