"""Flash Interface Splitter: shared access with a per-user tag cap and QoS.

Multiple hardware endpoints need the one card interface — "local in-store
processors, local host software over PCIe DMA, or remote in-store
processors over the network" (Section 3.1.2, Figure 3).  Each user gets a
:class:`SplitterPort`.  The paper's splitter renames user tags onto the
card's physical tags and guarantees fairness by capping how many
physical tags one user may hold; the model keeps what that renaming
enforces — the per-port cap, a :class:`~repro.sim.Resource` of
``max_in_flight`` slots — and no tag numbers, since no completion needs
one.  The splitter fronts one node's
:class:`~repro.flash.device.StorageDevice`: every operation resolves
the card its address names and issues the card command directly.

The splitter is built on the unified I/O pipeline
(:mod:`repro.io`): every operation is an
:class:`~repro.io.request.IORequest` carrying the port's tenant label,
priority, and deadline; slot waits are charged to the request's
``queue`` stage; and, optionally, a shared *admission* stage
arbitrates across ports with any
:class:`~repro.io.scheduler.SchedulerPolicy` (round-robin fair share,
weighted fair share, token-bucket rate limiting, strict priority,
earliest deadline), bounding total in-flight commands below the card's
physical tag pool so the policy — not the FIFO tag queue — decides who
runs under contention.

Admission accounting is per-tenant **bandwidth**, not just slot
counts: every admission request carries its payload size as the
scheduling *cost* (weighted fair share charges ``bytes / weight`` of
virtual time; token buckets drain ``bytes`` of tokens), and every
serviced operation lands in the splitter's
:class:`~repro.sim.stats.BandwidthLedger` — per-tenant bytes and the
busiest window, the numbers rate caps and fair-share ratios are
asserted against.  The scheduling identity comes from the *request*
when one is attached (so remote tenants arriving through the shared
network port are scheduled and accounted individually), falling back
to the port's configured tenant.
"""

from __future__ import annotations

from typing import List, Optional

from ..io import (BatchStageSpan, IOKind, IORequest, RequestTracer,
                  ScheduledResource, StageSpan)
from ..sim import BandwidthLedger, Resource, Simulator
from .coalesce import Coalescer
from .device import StorageDevice
from .geometry import FlashGeometry, PhysAddr

__all__ = ["FlashSplitter", "SplitterPort"]

#: Width of one :class:`~repro.sim.stats.BandwidthLedger` window (1 ms).
BANDWIDTH_WINDOW_NS = 1_000_000


class SplitterPort:
    """One user's view of the card, capped at ``max_in_flight`` commands.

    ``tenant``/``priority``/``deadline_ns`` are the QoS identity every
    request issued through this port inherits (``deadline_ns`` is a
    relative deadline applied at issue time; None means no deadline).
    """

    def __init__(self, splitter: "FlashSplitter", user_id: int,
                 max_in_flight: int, tenant: Optional[str] = None,
                 priority: int = 0, deadline_ns: Optional[int] = None):
        self.splitter = splitter
        self.tenant = tenant or f"user{user_id}"
        self.priority = priority
        self.deadline_ns = deadline_ns
        self._slots = Resource(splitter.sim, capacity=max_in_flight,
                               name=f"splitter-{self.tenant}")
        self.coalescer = (Coalescer(self, splitter.coalesce_max_pages)
                          if splitter.coalesce else None)
        self.write_coalescer = (
            Coalescer(self, splitter.coalesce_max_pages, op="program",
                      paced=True)
            if splitter.coalesce else None)

    @property
    def max_in_flight(self) -> int:
        return self._slots.capacity

    def _start(self, kind: IOKind, addr: PhysAddr, size: int,
               request: Optional[IORequest]) -> tuple:
        """Adopt the caller's request or open one of our own.

        Returns ``(request, owned)`` — ``owned`` means this port created
        the request and must complete it into the splitter's tracer.
        """
        if request is not None:
            return request, False
        tracer = self.splitter.tracer
        if tracer is None:
            return None, False
        deadline = (None if self.deadline_ns is None
                    else self.splitter.sim.now + self.deadline_ns)
        return tracer.start(kind, addr, size, tenant=self.tenant,
                            priority=self.priority,
                            deadline_ns=deadline), True

    def sched_tenant(self, request: Optional[IORequest]) -> str:
        """The tenant label scheduling and accounting run under.

        The request's own tenant wins when one is attached — remote
        tenants funneled through the shared network-service port keep
        their identity at the admission stage — falling back to the
        port's configured tenant.
        """
        if request is not None and request.tenant:
            return request.tenant
        return self.tenant

    def _admit(self, request: Optional[IORequest], cost: int,
               batch: Optional[List[Optional[IORequest]]] = None):
        """Acquire the port slot, then the shared admission slot (if any).

        Both waits are charged to the request's ``queue`` stage.  The
        port slot is granted in FIFO order.  The tenant/priority/deadline
        forwarded to the admission policy come from the request when it
        specifies them (end-to-end QoS), falling back to the port's
        configured identity, so a request created merely for tracing
        never demotes a port's QoS.  They are worked out at entry: a
        relative deadline counts from arrival, not from the slot grant.
        ``cost`` is the operation's payload bytes: what weighted fair
        share and token buckets charge instead of a flat slot count.

        ``batch`` admits a coalesced command instead: ``request`` is the
        group head (whose identity the command inherits), ``batch``
        every child request — each charged the shared wait — under one
        grant at the merged byte cost.
        """
        sim = self.splitter.sim
        admission = self.splitter.admission
        if admission is not None:
            tenant = self.sched_tenant(request)
            priority = self.priority
            if request is not None and request.priority is not None:
                priority = request.priority
            deadline = None
            if request is not None and request.deadline_ns is not None:
                deadline = request.deadline_ns
            elif self.deadline_ns is not None:
                deadline = sim.now + self.deadline_ns
        span = (StageSpan(sim, request, "queue") if batch is None
                else BatchStageSpan(sim, batch, "queue"))
        with span:
            yield self._slots.request()
            if admission is not None:
                try:
                    yield admission.request(tenant=tenant,
                                            priority=priority,
                                            deadline_ns=deadline,
                                            cost=cost)
                except BaseException:
                    self._slots.release()
                    raise

    def _retire(self) -> None:
        admission = self.splitter.admission
        if admission is not None:
            admission.release()
        self._slots.release()

    def read_page(self, addr: PhysAddr, request: Optional[IORequest] = None):
        """Read via the shared card; returns the page's bytes.

        With coalescing enabled the read is staged at the port's
        :class:`~repro.flash.coalesce.Coalescer` instead of admitted
        directly: stripe-adjacent reads from the same tenant merge into
        one multi-page command (one slot, one admission grant at the
        merged byte cost, one card command), and this generator resumes
        when the merged command delivers its page.
        """
        size = self.splitter.page_size
        request, owned = self._start(IOKind.READ, addr, size, request)
        if self.coalescer is not None:
            data = yield self.coalescer.submit(addr, request)
            if owned:
                self.splitter.tracer.complete(request)
            return data
        yield from self._admit(request, cost=size)
        try:
            data = yield from self.splitter.device.card_of(addr).read_page(
                addr, request=request)
        finally:
            self._retire()
        self.splitter.bandwidth.record(self.sched_tenant(request), size)
        if owned:
            self.splitter.tracer.complete(request)
        return data

    def write_page(self, addr: PhysAddr, data: bytes,
                   request: Optional[IORequest] = None):
        """Program via the shared card.

        With coalescing enabled the program is staged at the port's
        slot-paced program :class:`~repro.flash.coalesce.Coalescer`
        (:attr:`write_coalescer`): stripe-adjacent
        programs from the same tenant targeting the open write point
        merge into one multi-page command (one slot, one admission
        grant at the merged byte cost, one card command setup),
        strictly preserving NAND program order within every block.
        """
        request, owned = self._start(IOKind.WRITE, addr, len(data), request)
        if self.write_coalescer is not None:
            yield self.write_coalescer.submit(addr, request, data)
            if owned:
                self.splitter.tracer.complete(request)
            return
        yield from self._admit(request, cost=len(data))
        try:
            yield from self.splitter.device.card_of(addr).write_page(
                addr, data, request=request)
        finally:
            self._retire()
        self.splitter.bandwidth.record(self.sched_tenant(request), len(data))
        if owned:
            self.splitter.tracer.complete(request)

    def erase_block(self, addr: PhysAddr,
                    request: Optional[IORequest] = None):
        # An erase moves no payload but occupies the card far longer
        # than a page op; it is scheduled at one page of cost so a
        # tenant cannot spam cost-free erases past a fair-share policy,
        # while the bandwidth ledger records its true zero bytes.
        request, owned = self._start(IOKind.ERASE, addr, 0, request)
        yield from self._admit(request, cost=self.splitter.page_size)
        try:
            yield from self.splitter.device.card_of(addr).erase_block(
                addr, request=request)
        finally:
            self._retire()
        self.splitter.bandwidth.record(self.sched_tenant(request), 0)
        if owned:
            self.splitter.tracer.complete(request)


class FlashSplitter:
    """Fans one node's :class:`~repro.flash.device.StorageDevice` out
    to several capped users.

    Each operation resolves its card once (:meth:`~repro.flash.device.
    StorageDevice.card_of`) and commands that
    :class:`~repro.flash.controller.FlashCard` directly.  Each port's
    in-flight cap (:meth:`add_port`, default: the device's combined tag
    count) bounds its commands so one user cannot exhaust the physical
    tag pools and starve the rest.

    ``policy`` (a name from :data:`repro.io.scheduler.POLICIES`)
    enables the shared admission stage: at most
    ``total_in_flight`` commands (default: the device's tag count) are
    outstanding across *all* ports, and when a slot frees the policy
    picks the next tenant.  ``tracer`` attaches end-to-end request
    tracing to every operation issued through any port.

    Every serviced operation is charged to its scheduling tenant in
    the :attr:`bandwidth` ledger (bytes per :data:`BANDWIDTH_WINDOW_NS`
    window); :meth:`configure_tenant` programs per-tenant weighted-fair
    weights and token-bucket rates into the admission policy.
    """

    def __init__(self, sim: Simulator, device: StorageDevice,
                 policy: Optional[str] = None,
                 total_in_flight: Optional[int] = None,
                 tracer: Optional[RequestTracer] = None,
                 coalesce: bool = False, coalesce_max_pages: int = 8):
        if coalesce and coalesce_max_pages < 2:
            raise ValueError(
                f"coalescing needs coalesce_max_pages >= 2, "
                f"got {coalesce_max_pages}")
        self.sim = sim
        self.device = device
        self.tracer = tracer
        self.coalesce = coalesce
        self.coalesce_max_pages = coalesce_max_pages
        self.ports: List[SplitterPort] = []
        self.bandwidth = BandwidthLedger(sim, window_ns=BANDWIDTH_WINDOW_NS,
                                         name="splitter-bandwidth")
        self.admission: Optional[ScheduledResource] = None
        if policy is not None:
            capacity = total_in_flight or self.tag_count
            self.admission = ScheduledResource(
                sim, capacity=capacity, policy=policy,
                name="splitter-admission")

    def configure_tenant(self, tenant: str, weight: Optional[float] = None,
                         rate_mbps: Optional[float] = None,
                         burst_kb: Optional[float] = None) -> None:
        """Program one tenant's QoS parameters into the admission policy.

        ``weight`` feeds weighted fair share; ``rate_mbps`` (MB/s) and
        ``burst_kb`` (KiB) feed token-bucket rate limiting.  Policies
        that don't use a parameter ignore it, so the same configuration
        works under every discipline.  No-op when no shared admission
        stage is enabled (:class:`~repro.api.spec.ScenarioSpec` rejects
        such parameters without a ``splitter_policy``).
        """
        if self.admission is not None:
            rate = None if rate_mbps is None else rate_mbps * 1e6 / 1e9
            burst = None if burst_kb is None else burst_kb * 1024
            self.admission.configure_tenant(
                tenant, weight=weight, rate_bytes_per_ns=rate,
                burst_bytes=burst)

    @property
    def tag_count(self) -> int:
        return self.device.tag_count

    @property
    def geometry(self) -> FlashGeometry:
        """The device's flash geometry (adjacency + page size source)."""
        return self.device.geometry

    @property
    def page_size(self) -> int:
        return self.device.geometry.page_size

    def coalescing_stats(self) -> dict:
        """Per-port read-coalescer counters (empty when coalescing off)."""
        return {port.tenant: port.coalescer.stats()
                for port in self.ports if port.coalescer is not None}

    def write_coalescing_stats(self) -> dict:
        """Per-port program-coalescer counters (empty when off)."""
        return {port.tenant: port.write_coalescer.stats()
                for port in self.ports
                if port.write_coalescer is not None}

    def add_port(self, max_in_flight: Optional[int] = None,
                 tenant: Optional[str] = None, priority: int = 0,
                 deadline_ns: Optional[int] = None) -> SplitterPort:
        """Attach a new user; returns its private port."""
        limit = min(max_in_flight or self.tag_count, self.tag_count)
        port = SplitterPort(self, len(self.ports), limit, tenant=tenant,
                            priority=priority, deadline_ns=deadline_ns)
        self.ports.append(port)
        return port
