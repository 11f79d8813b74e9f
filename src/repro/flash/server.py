"""Flash Server: in-order page interface + Address Translation Unit.

The raw card interface is out-of-order and interleaved, which is awkward
for in-store processor developers, so BlueDBM offers "an optional Flash
Server module ... [that] converts the out-of-order and interleaved flash
interface into multiple simple in-order request/response interfaces using
page buffers.  It also contains an Address Translation Unit that maps file
handles to incoming streams of physical addresses from the host"
(Section 3.1.2).

``queue_depth`` page buffers let the server keep many tagged reads in
flight while presenting strict FIFO completion to its user — the
completion-buffer pattern the paper describes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..io import IOKind, IORequest
from ..sim import Simulator, Store
from .controller import ReadResult
from .geometry import PhysAddr
from .splitter import SplitterPort

__all__ = ["FlashServer", "FileHandle"]


class FileHandle:
    """A file registered with the Address Translation Unit.

    The host file system resolves a file into its physical page extents
    (Section 4, step (1)) and installs them here; in-store processors then
    address the file by (handle, page offset).
    """

    __slots__ = ("handle_id", "name", "extents")

    def __init__(self, handle_id: int, name: str,
                 extents: Sequence[PhysAddr]):
        self.handle_id = handle_id
        self.name = name
        self.extents = list(extents)

    def translate(self, page_offset: int) -> PhysAddr:
        if not 0 <= page_offset < len(self.extents):
            raise IndexError(
                f"page offset {page_offset} out of range for "
                f"{self.name!r} ({len(self.extents)} pages)")
        return self.extents[page_offset]


class FlashServer:
    """In-order request/response flash access for in-store processors."""

    def __init__(self, sim: Simulator, port: SplitterPort,
                 queue_depth: int = 16):
        if queue_depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {queue_depth}")
        self.sim = sim
        self.port = port
        self.queue_depth = queue_depth
        self._files: Dict[int, FileHandle] = {}
        self._next_handle = 0

    # -- Address Translation Unit ------------------------------------------
    def register_file(self, name: str,
                      extents: Sequence[PhysAddr]) -> FileHandle:
        """Install a file's physical extents; returns its handle."""
        handle = FileHandle(self._next_handle, name, extents)
        self._files[handle.handle_id] = handle
        self._next_handle += 1
        return handle

    def lookup(self, handle_id: int) -> FileHandle:
        if handle_id not in self._files:
            raise KeyError(f"unknown file handle {handle_id}")
        return self._files[handle_id]

    @property
    def tracer(self):
        """The request tracer attached to the underlying splitter."""
        return self.port.splitter.tracer

    # -- in-order access -----------------------------------------------------
    def _stream_read(self, addr: PhysAddr, request: Optional[IORequest]):
        """One stream element: read, then wait in a page buffer.

        The time between the tagged read completing and the in-order
        stream consuming it is the cost of restoring FIFO order; it is
        charged to the request's ``reorder`` stage (closed by
        :meth:`stream_pages` when the element is emitted).
        """
        result = yield from self.port.read_page(addr, request=request)
        if request:
            request.enter("reorder", self.sim.now)
        return result

    def stream_pages(self, addrs: Sequence[PhysAddr], out: Store):
        """Pipelined in-order streaming read.

        Issues up to ``queue_depth`` tagged reads concurrently, reorders
        completions in page buffers, and puts :class:`ReadResult` objects
        into ``out`` in request order.  This is the FIFO-restoring
        completion buffer of Section 3.1.1/3.1.2.

        When the splitter has a tracer, each page becomes a traced
        :class:`~repro.io.request.IORequest` whose ``reorder`` stage
        records the page-buffer dwell time.

        Run as a process: ``sim.process(server.stream_pages(addrs, out))``.
        """
        sim = self.sim
        tracer = self.tracer
        pending: List = []

        def issue(addr):
            request = None
            if tracer is not None:
                request = tracer.start(
                    IOKind.READ, addr, self.port.splitter.page_size,
                    tenant=self.port.tenant, priority=self.port.priority)
            pending.append(
                (sim.process(self._stream_read(addr, request)), request))

        def emit(result, request):
            if request:
                request.exit("reorder", sim.now)
                tracer.complete(request)
            return result

        for addr in addrs:
            issue(addr)
            # Bound the number of outstanding requests (page buffers).
            while len(pending) >= self.queue_depth:
                process, request = pending.pop(0)
                result = yield process
                yield out.put(emit(result, request))
        while pending:
            process, request = pending.pop(0)
            result = yield process
            yield out.put(emit(result, request))

    def stream_file(self, handle_id: int, out: Store,
                    offsets: Optional[Iterable[int]] = None):
        """Stream a registered file (or selected page offsets) in order."""
        handle = self.lookup(handle_id)
        if offsets is None:
            addrs = list(handle.extents)
        else:
            addrs = [handle.translate(off) for off in offsets]
        yield from self.stream_pages(addrs, out)
