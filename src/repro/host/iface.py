"""Host interface facade: what host *software* pays to touch flash.

Composes the whole Section 3.3 / Figure 7 path for one request:

reads:  syscall+driver -> free read buffer -> RPC -> flash (tagged read)
        -> DMA burst(s) into the buffer -> completion interrupt
writes: syscall+driver -> free write buffer -> data copy + RPC ->
        DMA to device -> flash program -> ack

The in-store processor path skips everything except the flash access —
that difference is the core of Figures 12, 19, and 21.

Every call is blocking — one request, queue depth 1, run inline as a
DES generator.  Deeper queues are the caller's window: the
:class:`~repro.api.session.Session` keeps ``queue_depth`` of these
calls in flight as processes and refills as they complete out of order
(the tagged interface underneath completes commands out of order too),
which is how the card's deep-queue bandwidth becomes reachable from
host software; :meth:`~repro.sim.Simulator.pipeline` is the in-order
window the applications use.

The interface asks its splitter port for every per-request fact it
does not own: the simulator, page size, tracer and tenant are the
port's, and a request the interface opens is opened by the port
(:meth:`~repro.flash.splitter.SplitterPort._start`), under the port's
QoS identity.  Reads return the page's bytes.

Requests ride the unified I/O pipeline: when the port's splitter has a
:class:`~repro.io.tracer.RequestTracer` (or the caller passes its own
:class:`~repro.io.request.IORequest`), kernel/driver and RPC time is
charged to the ``software`` stage, buffer waits to ``queue``, DMA to
``pcie``, and the completion interrupt to ``interrupt``; the splitter
and card charge their own stages below.
"""

from __future__ import annotations

from typing import Optional

from ..flash import PhysAddr
from ..flash.splitter import SplitterPort
from ..io import IOKind, IORequest, RequestTracer, StageSpan
from .buffers import PageBufferPool
from .config import HostConfig
from .cpu import HostCPU
from .pcie import PCIeLink

__all__ = ["HostInterface"]


class HostInterface:
    """Software's RPC + DMA window onto the local storage device."""

    def __init__(self, config: HostConfig, cpu: HostCPU, pcie: PCIeLink,
                 port: SplitterPort):
        splitter = port.splitter
        self.sim = splitter.sim
        self.config = config
        self.cpu = cpu
        self.pcie = pcie
        self.port = port
        # Read off the port once: none of them changes after assembly.
        self.page_size = splitter.page_size
        self.tracer: Optional[RequestTracer] = splitter.tracer
        self.tenant = port.tenant
        self.read_buffers = PageBufferPool(self.sim, config.read_buffers,
                                           "read-buffers")
        self.write_buffers = PageBufferPool(self.sim, config.write_buffers,
                                            "write-buffers")

    # -- per-operation flows --------------------------------------------
    def _read_flow(self, addr: PhysAddr, software_path: bool,
                   request: Optional[IORequest]):
        """The whole host read path for one page (DES generator)."""
        if software_path:
            with StageSpan(self.sim, request, "software"):
                yield from self.cpu.compute(self.config.software_request_ns)
        with StageSpan(self.sim, request, "queue"):
            buffer_index = yield from self.read_buffers.acquire()
        try:
            with StageSpan(self.sim, request, "software"):
                yield self.sim.timeout(self.config.rpc_ns)
            data = yield from self.port.read_page(addr, request=request)
            with StageSpan(self.sim, request, "pcie"):
                yield from self.pcie.device_to_host(self.page_size)
            with StageSpan(self.sim, request, "interrupt"):
                yield self.sim.timeout(self.config.interrupt_ns)
        finally:
            self.read_buffers.release(buffer_index)
        return data

    def _write_flow(self, addr: PhysAddr, data: bytes,
                    software_path: bool, request: Optional[IORequest]):
        """The whole host write path for one page (DES generator)."""
        if software_path:
            with StageSpan(self.sim, request, "software"):
                yield from self.cpu.compute(self.config.software_request_ns)
        with StageSpan(self.sim, request, "queue"):
            buffer_index = yield from self.write_buffers.acquire()
        try:
            with StageSpan(self.sim, request, "software"):
                yield self.sim.timeout(self.config.rpc_ns)
            with StageSpan(self.sim, request, "pcie"):
                yield from self.pcie.host_to_device(self.page_size)
            yield from self.port.write_page(addr, data, request=request)
        finally:
            self.write_buffers.release(buffer_index)

    # -- blocking (queue depth 1) calls ---------------------------------
    def read_page(self, addr: PhysAddr, software_path: bool = True,
                  request: Optional[IORequest] = None):
        """Read one flash page into host memory (DES generator).

        ``software_path=False`` models a request issued by an already-
        running kernel-bypass loop (no per-request syscall/driver cost) —
        used by baselines that batch requests.
        Returns the corrected page data.
        """
        request, owned = self.port._start(IOKind.READ, addr,
                                          self.page_size, request)
        data = yield from self._read_flow(addr, software_path, request)
        if owned:
            self.tracer.complete(request)
        return data

    def write_page(self, addr: PhysAddr, data: bytes,
                   software_path: bool = True,
                   request: Optional[IORequest] = None):
        """Write one page from host memory to flash (DES generator)."""
        request, owned = self.port._start(IOKind.WRITE, addr, len(data),
                                          request)
        yield from self._write_flow(addr, data, software_path, request)
        if owned:
            self.tracer.complete(request)

    # -- blocking logical (volume) calls --------------------------------
    def read_lpn(self, volume, lpn: int, software_path: bool = True):
        """Read one *logical* page of ``volume`` (DES generator).

        The volume resolves the LPN through its FTL map; the physical
        access rides this interface's full read flow.  Returns the page
        data (erased pattern for unmapped LPNs).
        """
        request, owned = self.port._start(IOKind.READ, lpn,
                                          self.page_size, None)
        data = yield from volume.read_flow(lpn, self, software_path,
                                           request)
        if owned:
            self.tracer.complete(request)
        return data

    def write_lpn(self, volume, lpn: int, data: bytes,
                  software_path: bool = True):
        """Write one *logical* page of ``volume`` (DES generator).

        The volume allocates a fresh physical page (out-of-place remap,
        GC as needed, relocation through the volume's GC port); the
        program rides this interface's full write flow.
        """
        request, owned = self.port._start(IOKind.WRITE, lpn, len(data),
                                          None)
        yield from volume.write_flow(self, lpn, data, software_path,
                                     request, tenant=self.tenant)
        if owned:
            self.tracer.complete(request)
