"""Host server models: PCIe/DMA, page buffers, RPC costs, CPU.

* :mod:`~repro.host.config` — :class:`HostConfig` timing parameters.
* :mod:`~repro.host.pcie` — asymmetric-bandwidth PCIe link model.
* :mod:`~repro.host.buffers` — the 128+128 host page buffers.
* :mod:`~repro.host.cpu` — multi-core compute model.
* :mod:`~repro.host.iface` — :class:`HostInterface`, the full software
  read/write path (syscall -> RPC -> flash -> DMA -> interrupt).
"""

from .buffers import PageBufferPool
from .config import HostConfig
from .cpu import HostCPU
from .iface import HostInterface
from .pcie import PCIeLink

__all__ = [
    "HostConfig",
    "PCIeLink",
    "PageBufferPool",
    "HostCPU",
    "HostInterface",
]
