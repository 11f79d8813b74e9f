"""The request: one page-granular I/O operation and its stage timeline.

An :class:`IORequest` is created where an operation enters the system
(host syscall, ISP stream issue, remote protocol request) and travels —
as a plain Python object — down through the splitter, the card, and back
up, including across the simulated network to a remote node's flash
service.  Each layer charges the time it spends on the request to a
named *stage* via :meth:`enter`/:meth:`exit` (usually through
:class:`~repro.io.stage.StageSpan`), so afterwards the full end-to-end
latency decomposes into where it actually went.

Stage names are free-form, but the layers use a shared vocabulary so the
tracer can map them onto the paper's Figure 12 components:

==============  ========================================================
stage           charged by
==============  ========================================================
``software``    host CPU syscall/driver time, RPC portal writes, remote
                host kernel costs and the Ethernet RPC's fixed latency
``queue``       waiting for a splitter slot / QoS admission grant
``tag``         waiting for a physical tag on the card
``storage``     flash command overhead + chip array read/program
``device``      card-internal bus + aurora transfer of the payload
``pcie``        PCIe DMA between device and host DRAM
``interrupt``   completion interrupt + process wakeup
==============  ========================================================

Network propagation is deterministic per route, so the cluster records
it as an *annotation* (:meth:`annotate`) rather than a timed span.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, Dict, Optional

__all__ = ["IOKind", "IORequest", "UNSAMPLED"]

_req_ids = itertools.count()


class _Unsampled:
    """Falsy request stand-in for arrivals outside the 1-in-N sample.

    :meth:`~repro.io.tracer.RequestTracer.start` returns
    :data:`UNSAMPLED` — never ``None`` — for arrivals it skips, and
    downstream layers *adopt* it exactly like a real request.  That
    distinction matters: ``request=None`` means "nobody upstream is
    tracing this operation", so a layer with a tracer opens its own
    request; ``UNSAMPLED`` means "an upstream tracer already counted
    this arrival and chose not to trace it", so no layer may open a
    replacement (which would double-count arrivals and skew the
    weight-scaled statistics).  It is falsy, every
    :class:`~repro.io.stage.StageSpan` over it is a shared no-op, and
    ``complete()`` ignores it.  The class attributes satisfy the QoS
    fallbacks: scheduling reads ``tenant``/``priority``/``deadline_ns``
    off adopted requests and falls back to the port's configured
    identity for all three.
    """

    __slots__ = ()
    tenant = ""
    priority: Optional[int] = None
    deadline_ns: Optional[int] = None

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "UNSAMPLED"


#: The singleton unsampled-arrival marker (see :class:`_Unsampled`).
UNSAMPLED = _Unsampled()


class IOKind(Enum):
    """What the request does to the addressed page/block."""

    READ = "read"
    WRITE = "write"
    ERASE = "erase"


class IORequest:
    """One I/O operation with QoS metadata and a per-stage time ledger.

    Parameters
    ----------
    kind:
        :class:`IOKind` (or its string value).
    addr:
        Target address — usually a :class:`~repro.flash.geometry.PhysAddr`,
        but remote-DRAM requests use a plain page number.
    size:
        Payload bytes moved by the request.
    tenant:
        Which principal issued it (``"host"``, ``"isp"``, ``"net"``,
        an application id, ...).  Fair-share policies schedule per tenant.
    priority:
        Larger is more urgent (strict-priority policy).  ``None`` means
        unspecified: scheduling points fall back to the configured
        priority of the port the request arrives through.
    deadline_ns:
        Absolute simulated-time deadline (earliest-deadline policy).
        ``None`` means unspecified; ports with a relative deadline
        configured apply it at admission.
    """

    __slots__ = ("req_id", "kind", "addr", "size", "tenant", "priority",
                 "deadline_ns", "issued_ns", "completed_ns", "stages",
                 "annotations", "_open")

    def __init__(self, kind: "IOKind | str", addr: Any, size: int,
                 tenant: str = "default", priority: Optional[int] = None,
                 deadline_ns: Optional[int] = None,
                 issued_ns: Optional[int] = None):
        self.req_id = next(_req_ids)
        self.kind = IOKind(kind)
        self.addr = addr
        self.size = size
        self.tenant = tenant
        self.priority = priority
        self.deadline_ns = deadline_ns
        self.issued_ns = issued_ns
        self.completed_ns: Optional[int] = None
        #: Accumulated nanoseconds charged to each stage.
        self.stages: Dict[str, int] = {}
        #: Analytically-known components (e.g. network propagation).
        self.annotations: Dict[str, int] = {}
        self._open: Dict[str, int] = {}

    # -- stage ledger ---------------------------------------------------
    def enter(self, stage: str, now: int) -> None:
        """Open a timing span for ``stage`` at simulated time ``now``."""
        if stage in self._open:
            raise ValueError(f"stage {stage!r} already open on {self!r}")
        self._open[stage] = now

    def exit(self, stage: str, now: int) -> None:
        """Close the span; the elapsed time accumulates onto the stage."""
        start = self._open.pop(stage, None)
        if start is None:
            raise ValueError(f"stage {stage!r} was never entered on {self!r}")
        if now < start:
            raise ValueError(f"stage {stage!r} exits before it enters")
        self.stages[stage] = self.stages.get(stage, 0) + (now - start)

    def annotate(self, component: str, duration_ns: int) -> None:
        """Record an analytically-derived latency component."""
        if duration_ns < 0:
            raise ValueError(f"negative annotation {duration_ns}")
        self.annotations[component] = (
            self.annotations.get(component, 0) + duration_ns)

    def stage_ns(self, stage: str) -> int:
        """Nanoseconds charged to ``stage`` (0 if never visited)."""
        return self.stages.get(stage, 0)

    # -- lifecycle ------------------------------------------------------
    @property
    def total_ns(self) -> int:
        """End-to-end latency; only meaningful once completed."""
        if self.issued_ns is None or self.completed_ns is None:
            return 0
        return self.completed_ns - self.issued_ns

    def missed_deadline(self) -> bool:
        """True if the request completed after its deadline."""
        return (self.deadline_ns is not None and self.completed_ns is not None
                and self.completed_ns > self.deadline_ns)

    def __repr__(self) -> str:
        state = ("completed" if self.completed_ns is not None
                 else "issued" if self.issued_ns is not None else "new")
        return (f"<IORequest #{self.req_id} {self.kind.value} "
                f"tenant={self.tenant!r} {state}>")
