"""One BlueDBM node (Figure 2): host server + storage device.

Assembles, around a two-card :class:`~repro.flash.device.StorageDevice`:

* a :class:`~repro.flash.splitter.FlashSplitter` multiplexing the flash
  between the in-store processor, the host, and the network service;
* a :class:`~repro.flash.server.FlashServer` (in-order streams + address
  translation) for in-store processors;
* the host side — CPU, PCIe link, and the RPC/DMA
  :class:`~repro.host.iface.HostInterface`;
* the on-board DRAM buffer;
* an RFS file system instance, built when :attr:`BlueDBMNode.fs` is
  first read.  Its FTL state (free-block heaps, seal flags) is sized to
  the whole device, 78.8 MiB on the 1 TB default geometry, and most
  nodes never touch the file system: volumes and distributed volumes
  bring FTL cores of their own.  Building it draws no event ticket and
  no random number, so when it is built never moves a result.

Network endpoints are attached by the cluster when it wires nodes into
the storage fabric.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from ..devices import DRAMStore
from ..faults import FaultInjector
from ..flash import (
    DEFAULT_GEOMETRY,
    ErrorModel,
    FlashGeometry,
    FlashServer,
    FlashSplitter,
    FlashTiming,
    PhysAddr,
)
from ..flash.device import StorageDevice
from ..fs import RFS
from ..host import HostConfig, HostCPU, HostInterface, PCIeLink
from ..io import RequestTracer
from ..sim import Simulator

__all__ = ["BlueDBMNode"]


class BlueDBMNode:
    """A host server coupled with its BlueDBM storage device.

    QoS wiring: ``splitter_policy`` (a name from
    :data:`repro.io.scheduler.POLICIES`) enables
    policy-arbitrated admission across the node's three splitter ports
    (ISP / host / network service), bounded to ``splitter_in_flight``
    outstanding commands; ``tracer`` attaches end-to-end request
    tracing to every path through the node.  ``coalesce`` /
    ``coalesce_max_pages`` enable the splitter's admission-side
    coalescing stage (stripe-adjacent reads merge into multi-page
    commands).
    """

    def __init__(self, sim: Simulator, node_id: int = 0,
                 geometry: FlashGeometry = DEFAULT_GEOMETRY,
                 flash_timing: Optional[FlashTiming] = None,
                 errors: Optional[ErrorModel] = None,
                 host_config: Optional[HostConfig] = None,
                 isp_queue_depth: int = 32,
                 onboard_dram_gbs: float = 10.0,
                 seed: int = 0,
                 splitter_policy: Optional[str] = None,
                 splitter_in_flight: Optional[int] = None,
                 tracer: Optional[RequestTracer] = None,
                 port_qos: Optional[dict] = None,
                 coalesce: bool = False,
                 coalesce_max_pages: int = 8,
                 endurance: int = 3000,
                 fault_plan=None):
        self.sim = sim
        self.node_id = node_id
        self.geometry = geometry
        self.host_config = host_config or HostConfig()
        self.tracer = tracer

        # Storage device: two custom flash cards with shared management.
        self.device = StorageDevice(sim, geometry=geometry,
                                    timing=flash_timing, errors=errors,
                                    node=node_id, seed=seed,
                                    endurance=endurance)
        #: The node's fault injector (None = ideal hardware).  Built
        #: here so each node's read-count/failure state is private.
        self.faults = None
        if fault_plan is not None:
            self.faults = FaultInjector(fault_plan, node=node_id)
            self.device.install_faults(self.faults)
        self.splitter = FlashSplitter(sim, self.device,
                                      policy=splitter_policy,
                                      total_in_flight=splitter_in_flight,
                                      tracer=tracer,
                                      coalesce=coalesce,
                                      coalesce_max_pages=coalesce_max_pages)
        # Port 0: local in-store processors; port 1: host software;
        # port 2: remote requests arriving over the storage network.
        # ``port_qos`` maps tenant name -> add_port kwargs (priority,
        # deadline_ns, max_in_flight) for QoS experiments.
        port_qos = port_qos or {}
        self.isp_port = self.splitter.add_port(
            tenant="isp", **port_qos.get("isp", {}))
        self.host_port = self.splitter.add_port(
            tenant="host", **port_qos.get("host", {}))
        self.net_port = self.splitter.add_port(
            tenant="net", **port_qos.get("net", {}))
        self.flash_server = FlashServer(sim, self.isp_port,
                                        queue_depth=isp_queue_depth)

        # Host server.
        self.cpu = HostCPU(sim, self.host_config)
        self.pcie = PCIeLink(sim, self.host_config)
        self.host = HostInterface(self.host_config, self.cpu, self.pcie,
                                  self.host_port)

        # On-board DRAM buffer (Figure 2's fourth service).
        self.dram = DRAMStore(sim, page_size=geometry.page_size,
                              bandwidth_gbs=onboard_dram_gbs)

    @cached_property
    def fs(self) -> RFS:
        """The node's file system, built on first use (module docstring)."""
        return RFS(self.sim, self.device)

    # -- access paths -----------------------------------------------------
    def isp_read(self, addr: PhysAddr):
        """In-store processor read: no host software or PCIe involved."""
        return (yield from self.isp_port.read_page(addr))

    def net_read(self, addr: PhysAddr, request=None):
        """Read on behalf of a remote node (network service port)."""
        return (yield from self.net_port.read_page(addr, request=request))

    def host_read(self, addr: PhysAddr, software_path: bool = True,
                  request=None):
        """Host software read: syscall + RPC + flash + DMA + interrupt."""
        return (yield from self.host.read_page(
            addr, software_path=software_path, request=request))

    def peak_flash_bandwidth(self) -> float:
        """The node's native flash ceiling (2.4 GB/s with paper values)."""
        return self.device.peak_read_bandwidth()
