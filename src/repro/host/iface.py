"""Host interface facade: what host *software* pays to touch flash.

Composes the whole Section 3.3 / Figure 7 path for one request:

reads:  syscall+driver -> free read buffer -> RPC -> flash (tagged read)
        -> DMA burst(s) into the buffer -> completion interrupt
writes: syscall+driver -> free write buffer -> data copy + RPC ->
        DMA to device -> flash program -> ack
erases: syscall+driver -> RPC -> flash erase

The in-store processor path skips everything except the flash access —
that difference is the core of Figures 12, 19, and 21.

Two submission disciplines share one per-operation flow:

* the blocking calls (:meth:`HostInterface.read_page` /
  :meth:`~HostInterface.write_page` / :meth:`~HostInterface.erase_block`)
  run the flow inline — queue depth 1, exactly the seed behavior;
* :meth:`HostInterface.submit` is the queue-depth interface: it takes a
  whole batch of operations, returns immediately with a
  :class:`~repro.io.batch.RequestBatch`, and pumps up to ``queue_depth``
  flows concurrently.  Completions are delivered out of order as each
  flow finishes — per-item events plus the batch's ``done`` event —
  which is how the card's deep-queue bandwidth becomes reachable from
  host software.

Requests ride the unified I/O pipeline: when a
:class:`~repro.io.tracer.RequestTracer` is attached (or the caller
passes its own :class:`~repro.io.request.IORequest`), kernel/driver and
RPC time is charged to the ``software`` stage, buffer waits to
``queue``, DMA to ``pcie``, and the completion interrupt to
``interrupt``; the splitter and card charge their own stages below.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from ..flash import PhysAddr, ReadResult
from ..flash.splitter import SplitterPort
from ..io import IOKind, IORequest, RequestBatch, RequestTracer, StageSpan
from ..sim import Counter, Simulator
from .buffers import PageBufferPool
from .config import HostConfig
from .cpu import HostCPU
from .pcie import PCIeLink

__all__ = ["HostInterface"]


class HostInterface:
    """Software's RPC + DMA window onto the local storage device.

    ``queue_depth`` is the default in-flight bound :meth:`submit` pumps
    a batch at (overridable per call); the blocking single-request
    calls are always effectively queue depth 1.
    """

    def __init__(self, sim: Simulator, config: HostConfig, cpu: HostCPU,
                 pcie: PCIeLink, port: SplitterPort, page_size: int,
                 tracer: Optional[RequestTracer] = None,
                 tenant: str = "host", queue_depth: int = 8):
        if queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {queue_depth}")
        self.sim = sim
        self.config = config
        self.cpu = cpu
        self.pcie = pcie
        self.port = port
        self.page_size = page_size
        self.tracer = tracer
        self.tenant = tenant
        self.queue_depth = queue_depth
        self.read_buffers = PageBufferPool(sim, config.read_buffers,
                                           "read-buffers")
        self.write_buffers = PageBufferPool(sim, config.write_buffers,
                                            "write-buffers")
        self.reads = Counter("host-reads")
        self.writes = Counter("host-writes")

    def _start(self, kind: IOKind, addr: PhysAddr, size: int,
               request: Optional[IORequest]) -> tuple:
        """Adopt the caller's request or open a traced one of our own.

        Requests this interface creates inherit the QoS identity of the
        splitter port it drives (priority and relative deadline), so the
        host tenant competes under the admission policy as configured.
        """
        if request is not None:
            return request, False
        if self.tracer is None:
            return None, False
        deadline = (None if self.port.deadline_ns is None
                    else self.sim.now + self.port.deadline_ns)
        return self.tracer.start(kind, addr, size, tenant=self.tenant,
                                 priority=self.port.priority,
                                 deadline_ns=deadline), True

    # -- per-operation flows (shared by blocking calls and submit) ------
    def _read_flow(self, addr: PhysAddr, software_path: bool,
                   request: Optional[IORequest], interrupt: bool = True):
        """The whole host read path for one page (DES generator).

        ``interrupt=False`` skips the per-page completion interrupt.
        """
        if software_path:
            with StageSpan(self.sim, request, "software"):
                yield from self.cpu.compute(self.config.software_request_ns)
        with StageSpan(self.sim, request, "queue"):
            buffer_index = yield from self.read_buffers.acquire()
        try:
            with StageSpan(self.sim, request, "software"):
                yield self.sim.timeout(self.config.rpc_ns)
            result: ReadResult = yield from self.port.read_page(
                addr, request=request)
            with StageSpan(self.sim, request, "pcie"):
                yield from self.pcie.device_to_host(self.page_size)
            if interrupt:
                with StageSpan(self.sim, request, "interrupt"):
                    yield self.sim.timeout(self.config.interrupt_ns)
        finally:
            self.read_buffers.release(buffer_index)
        return result

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

    def _erase_flow(self, addr: PhysAddr, software_path: bool,
                    request: Optional[IORequest]):
        """The driver-initiated block erase path (DES generator)."""
        if software_path:
            with StageSpan(self.sim, request, "software"):
                yield from self.cpu.compute(self.config.software_request_ns)
                yield self.sim.timeout(self.config.rpc_ns)
        else:
            with StageSpan(self.sim, request, "software"):
                yield self.sim.timeout(self.config.rpc_ns)
        yield from self.port.erase_block(addr, request=request)

    # -- blocking (queue depth 1) calls ---------------------------------
    def read_page(self, addr: PhysAddr, software_path: bool = True,
                  request: Optional[IORequest] = None):
        """Read one flash page into host memory (DES generator).

        ``software_path=False`` models a request issued by an already-
        running kernel-bypass loop (no per-request syscall/driver cost) —
        used by baselines that batch requests.
        Returns the corrected page data.
        """
        request, owned = self._start(IOKind.READ, addr, self.page_size,
                                     request)
        result = yield from self._read_flow(addr, software_path, request)
        self.reads.add()
        if owned:
            self.tracer.complete(request)
        return result.data

    def write_page(self, addr: PhysAddr, data: bytes,
                   software_path: bool = True,
                   request: Optional[IORequest] = None):
        """Write one page from host memory to flash (DES generator)."""
        request, owned = self._start(IOKind.WRITE, addr, len(data), request)
        yield from self._write_flow(addr, data, software_path, request)
        self.writes.add()
        if owned:
            self.tracer.complete(request)

    def erase_block(self, addr: PhysAddr,
                    request: Optional[IORequest] = None):
        """Erase a block (driver-initiated; DES generator)."""
        request, owned = self._start(IOKind.ERASE, addr, 0, request)
        yield from self._erase_flow(addr, True, request)
        if owned:
            self.tracer.complete(request)

    # -- blocking logical (volume) calls --------------------------------
    def read_lpn(self, volume, lpn: int, software_path: bool = True,
                 request: Optional[IORequest] = None):
        """Read one *logical* page of ``volume`` (DES generator).

        The volume resolves the LPN through its FTL map; the physical
        access rides this interface's full read flow.  Returns the page
        data (erased pattern for unmapped LPNs).
        """
        request, owned = self._start(IOKind.READ, lpn, self.page_size,
                                     request)
        data = yield from volume.read_flow(lpn, self, software_path,
                                           request)
        self.reads.add()
        if owned:
            self.tracer.complete(request)
        return data

    def write_lpn(self, volume, lpn: int, data: bytes,
                  software_path: bool = True,
                  request: Optional[IORequest] = None):
        """Write one *logical* page of ``volume`` (DES generator).

        The volume allocates a fresh physical page (out-of-place remap,
        GC as needed, relocation through the volume's GC port); the
        program rides this interface's full write flow.
        """
        request, owned = self._start(IOKind.WRITE, lpn, len(data), request)
        yield from volume.write_flow(self, lpn, data, software_path,
                                     request, tenant=self.tenant)
        self.writes.add()
        if owned:
            self.tracer.complete(request)

    # -- asynchronous batched submission --------------------------------
    def submit(self, ops: Iterable, queue_depth: Optional[int] = None,
               software_path: bool = False,
               volume=None) -> RequestBatch:
        """Issue a batch of operations asynchronously; returns at once.

        ``ops`` is an iterable of ``(kind, addr)`` or
        ``(kind, addr, data)`` tuples (``kind`` an
        :class:`~repro.io.IOKind` or its string value).  The returned
        :class:`~repro.io.RequestBatch` exposes a per-item completion
        event (``item.event``, firing with the operation's result) and
        a batch-level ``done`` event; completions arrive **out of
        order** — whichever flow finishes first settles first, exactly
        like the tagged interface underneath.

        At most ``queue_depth`` operations (default: the interface's
        :attr:`queue_depth`) are in flight at once; as each completes,
        the pump launches the next, so a deep batch keeps the device's
        queue full without the caller writing a driver loop.

        ``software_path=False`` (the default) models the batched
        kernel-bypass submission loop the paper's bandwidth
        measurements use — no per-request syscall/driver charge; pass
        ``True`` to pay the full per-request software path instead.

        ``volume`` routes the batch through a
        :class:`~repro.volume.LogicalVolume`: each op's address is a
        *logical* page number, reads resolve through the FTL map, and
        writes allocate out-of-place with validity updates and GC.
        """
        depth = self.queue_depth if queue_depth is None else queue_depth
        if depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {depth}")
        batch = RequestBatch(self.sim, tenant=self.tenant)
        for op in ops:
            kind, addr = op[0], op[1]
            data = op[2] if len(op) > 2 else None
            kind = IOKind(kind)
            if kind is IOKind.WRITE and data is None:
                raise ValueError(f"write to {addr} needs data")
            size = (len(data) if data is not None
                    else 0 if kind is IOKind.ERASE else self.page_size)
            request, _ = self._start(kind, addr, size, None)
            batch.add(kind, addr, data=data, request=request)
        batch.seal()
        if batch.items:
            self.sim.process(
                self._pump(batch, depth, software_path, volume),
                name=f"{self.tenant}-submit")
        return batch

    def _pump(self, batch: RequestBatch, depth: int, software_path: bool,
              volume):
        """Keep up to ``depth`` of the batch's flows in flight."""
        waiting = deque(batch.items)
        pending: dict = {}

        def launch():
            while waiting and len(pending) < depth:
                item = waiting.popleft()
                proc = self.sim.process(
                    self._item_flow(batch, item, software_path, volume))
                pending[proc] = item

        launch()
        while pending:
            yield self.sim.any_of(list(pending))
            for proc in [p for p in pending if p.triggered]:
                del pending[proc]
            launch()

    def _item_flow(self, batch: RequestBatch, item, software_path: bool,
                   volume=None):
        """Run one batch item end to end and settle it.

        Failures are settled into the item (its event fails, carrying
        the exception to any waiter) rather than raised — the pump must
        keep the rest of the batch moving.
        """
        result = None
        error: Optional[BaseException] = None
        try:
            if item.kind is IOKind.READ:
                if volume is not None:
                    result = yield from volume.read_flow(
                        item.addr, self, software_path, item.request)
                else:
                    page = yield from self._read_flow(
                        item.addr, software_path, item.request)
                    result = page.data
                self.reads.add()
            elif item.kind is IOKind.WRITE:
                if volume is not None:
                    yield from volume.write_flow(
                        self, item.addr, item.data, software_path,
                        item.request, tenant=self.tenant)
                else:
                    yield from self._write_flow(item.addr, item.data,
                                                software_path,
                                                item.request)
                self.writes.add()
            else:
                yield from self._erase_flow(item.addr, software_path,
                                            item.request)
        except Exception as exc:
            error = exc
        if self.tracer is not None and error is None:
            self.tracer.complete(item.request)
        batch.item_done(item, result=result, error=error)
