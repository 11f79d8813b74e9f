"""Pluggable QoS scheduling policies and the policy-ordered resource.

The paper runs "a simple FIFO-based policy" (Section 4) everywhere a
shared resource is arbitrated.  This module generalizes that single
hard-coded discipline into a :class:`SchedulerPolicy` family so any
contended point — splitter admission or per-port slots — can be
scheduled FIFO, round-robin fair-share across tenants,
weighted-fair-share (virtual-time WFQ over per-tenant weights),
token-bucket rate-limited, strict-priority, or earliest-deadline-first,
without the resource model knowing which.

:class:`ScheduledResource` is the drop-in integration point: a counted
resource like :class:`repro.sim.resources.Resource`, except that when a
unit frees up the *policy* decides which waiter is granted next.  With
the FIFO policy it is semantically identical to ``Resource``.
Entries carry a *cost* (bytes for I/O admission) so that weighted fair
share and token buckets account bandwidth, not just slot counts.

Rate-limiting policies are the one departure from pure reordering: a
token bucket may have waiters that are not yet *eligible*.  The policy
protocol therefore includes :meth:`SchedulerPolicy.next_ready_ns`,
letting :class:`ScheduledResource` park until the earliest refill
instead of busy-granting — the only scheduling point that is allowed
to leave capacity idle while requests are queued.
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict, deque
from typing import Deque, Dict, Optional, Tuple

from ..sim import Event, Simulator

__all__ = [
    "QueueEntry",
    "SchedulerPolicy",
    "FIFOPolicy",
    "RoundRobinPolicy",
    "WeightedFairPolicy",
    "TokenBucketPolicy",
    "StrictPriorityPolicy",
    "EarliestDeadlinePolicy",
    "ScheduledResource",
    "POLICIES",
    "make_policy",
]


class QueueEntry:
    """One waiter in a policy queue: QoS metadata + an opaque payload.

    ``cost`` is the amount of the resource's accounted quantity this
    grant consumes — bytes for splitter admission, 1 for unit-shaped
    resources.  Weighted fair share charges ``cost / weight`` of virtual
    time per grant; token buckets drain ``cost`` tokens.  A coalesced
    multi-page command occupies one grant slot but carries the merged
    pages' combined cost, so fair-share and rate policies arbitrate the
    real load while the capacity count still reflects commands.
    """

    __slots__ = ("seq", "tenant", "priority", "deadline_ns", "payload",
                 "cost")

    def __init__(self, seq: int, tenant: str, priority: int,
                 deadline_ns: Optional[int], payload: object, cost: int = 1):
        self.seq = seq
        self.tenant = tenant
        self.priority = priority
        self.deadline_ns = deadline_ns
        self.payload = payload
        self.cost = cost

    def __repr__(self) -> str:
        return (f"<QueueEntry #{self.seq} tenant={self.tenant!r} "
                f"prio={self.priority} deadline={self.deadline_ns} "
                f"cost={self.cost}>")


class SchedulerPolicy:
    """Ordering discipline for a queue of :class:`QueueEntry`.

    Subclasses implement :meth:`push` and :meth:`pop`; ``pop`` must
    return entries one at a time and only when non-empty.  Policies are
    pure data structures — they never touch the simulator clock (``pop``
    and :meth:`next_ready_ns` receive the current time from the caller)
    — but they hold *per-resource* queue state, so each resource builds
    its own from a name (:func:`make_policy`).

    Per-tenant QoS parameters (``weight``, ``rate_bytes_per_ns``,
    ``burst_bytes``) arrive through :meth:`configure_tenant`; policies
    that don't use a parameter simply ignore it, so one configuration
    pass works for every discipline.
    """

    name = "abstract"

    def __init__(self):
        #: tenant -> {param: value} QoS configuration.
        self.tenant_config: Dict[str, Dict[str, float]] = {}

    def configure_tenant(self, tenant: str, **params) -> None:
        """Record per-tenant QoS parameters (None values are ignored)."""
        config = self.tenant_config.setdefault(tenant, {})
        config.update({key: value for key, value in params.items()
                       if value is not None})

    def push(self, entry: QueueEntry) -> None:
        raise NotImplementedError

    def pop(self, now: int = 0) -> QueueEntry:
        raise NotImplementedError

    def next_ready_ns(self, now: int) -> Optional[int]:
        """Earliest time a queued entry is dispatchable.

        ``None`` when the queue is empty; ``now`` for work-conserving
        policies with waiters.  Rate-limiting policies return the
        earliest refill instant, which may be in the future.
        """
        return now if len(self) else None

    def __len__(self) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} depth={len(self)}>"


class FIFOPolicy(SchedulerPolicy):
    """Arrival order — the paper's "simple FIFO-based policy"."""

    name = "fifo"

    def __init__(self):
        super().__init__()
        self._queue: Deque[QueueEntry] = deque()

    def push(self, entry: QueueEntry) -> None:
        self._queue.append(entry)

    def pop(self, now: int = 0) -> QueueEntry:
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)


class RoundRobinPolicy(SchedulerPolicy):
    """Fair share: grants rotate over tenants with waiting requests.

    Within a tenant, arrival order is preserved; across tenants each
    grant goes to the next tenant in rotation, so an aggressor with a
    deep queue cannot starve a light tenant — the light tenant waits at
    most one grant per competing tenant instead of behind the whole
    backlog.
    """

    name = "rr"

    def __init__(self):
        super().__init__()
        self._queues: "OrderedDict[str, Deque[QueueEntry]]" = OrderedDict()
        self._count = 0

    def push(self, entry: QueueEntry) -> None:
        queue = self._queues.get(entry.tenant)
        if queue is None:
            # New (or re-appearing) tenant joins the end of the rotation.
            queue = deque()
            self._queues[entry.tenant] = queue
        queue.append(entry)
        self._count += 1

    def pop(self, now: int = 0) -> QueueEntry:
        tenant, queue = next(iter(self._queues.items()))
        entry = queue.popleft()
        del self._queues[tenant]
        if queue:
            # Tenant still has work: back of the rotation.
            self._queues[tenant] = queue
        self._count -= 1
        return entry

    def __len__(self) -> int:
        return self._count


class WeightedFairPolicy(SchedulerPolicy):
    """Weighted fair share: start-time fair queueing over tenant weights.

    Round-robin equalizes *grant counts*; when request sizes differ
    across tenants that under-protects victims (a tenant of 8 KB reads
    and a tenant of 512 B metadata ops are not equal loads).  WFQ
    instead equalizes *weighted service*: each entry is stamped with a
    virtual start tag ``max(V, finish[tenant])`` and advances its
    tenant's finish tag by ``cost / weight``; grants go in start-tag
    order and the virtual clock ``V`` jumps to each granted tag.  Over
    any interval in which a set of tenants stays backlogged, tenant
    throughput (in cost units) converges to the ratio of their weights.

    Weights come from :meth:`configure_tenant` (``weight=...``);
    unconfigured tenants get weight 1.0.  Work-conserving.
    """

    name = "wfq"

    def __init__(self):
        super().__init__()
        self._heap: list = []
        self._vtime = 0.0
        self._finish: Dict[str, float] = {}

    def weight_of(self, tenant: str) -> float:
        weight = self.tenant_config.get(tenant, {}).get(
            "weight", 1.0)
        if weight <= 0:
            raise ValueError(f"tenant {tenant!r} weight must be > 0")
        return float(weight)

    def push(self, entry: QueueEntry) -> None:
        start = max(self._vtime, self._finish.get(entry.tenant, 0.0))
        # A zero-cost entry (e.g. an erase) still advances the finish
        # tag by one unit so a tenant cannot spam cost-free work.
        charge = max(entry.cost, 1) / self.weight_of(entry.tenant)
        self._finish[entry.tenant] = start + charge
        heapq.heappush(self._heap, (start, entry.seq, entry))

    def pop(self, now: int = 0) -> QueueEntry:
        start, _, entry = heapq.heappop(self._heap)
        # Virtual time tracks the service the busiest tenants received.
        self._vtime = max(self._vtime, start)
        return entry

    def __len__(self) -> int:
        return len(self._heap)


class TokenBucketPolicy(SchedulerPolicy):
    """Per-tenant token-bucket rate limiting; FIFO among eligible heads.

    Each configured tenant owns a bucket that refills at
    ``rate_bytes_per_ns`` up to ``burst_bytes``; a tenant's head entry
    is eligible once the bucket holds ``min(cost, burst)`` tokens (an
    entry larger than the whole burst passes on a full bucket and drives
    the balance negative, so oversized requests throttle — they never
    deadlock).  Unconfigured tenants are unthrottled.  Among eligible
    tenants the earliest-arrived head is granted, so the policy degrades
    to FIFO when no cap binds.

    This is the one *non-work-conserving* discipline: when every queued
    tenant is throttled, :meth:`next_ready_ns` reports the earliest
    refill instant and the resource idles until then.  A direct
    :meth:`pop` with no eligible head falls back to the earliest-arrived
    entry (charging its bucket), so ``pop`` is always total — shaping
    comes from callers honoring :meth:`next_ready_ns`.
    """

    name = "token-bucket"

    _EPS = 1e-9
    #: A rate configured without a burst gets this bucket capacity
    #: (matching the TenantSpec default) — a zero-capacity bucket would
    #: invert the cap into either starvation or a free pass.
    DEFAULT_BURST_BYTES = 64 * 1024

    def __init__(self):
        super().__init__()
        self._queues: "OrderedDict[str, Deque[QueueEntry]]" = OrderedDict()
        self._count = 0
        self._tokens: Dict[str, float] = {}
        self._refilled_ns: Dict[str, int] = {}

    def _limits(self, tenant: str) -> Tuple[Optional[float], float]:
        config = self.tenant_config.get(tenant, {})
        rate = config.get("rate_bytes_per_ns")
        burst = config.get("burst_bytes") or self.DEFAULT_BURST_BYTES
        return rate, float(burst)

    def _refill(self, tenant: str, now: int) -> float:
        """Advance the bucket to ``now``; returns the balance."""
        rate, burst = self._limits(tenant)
        if rate is None:
            return float("inf")
        last = self._refilled_ns.get(tenant)
        if last is None:
            # First sighting: the bucket starts full.
            self._refilled_ns[tenant] = now
            self._tokens[tenant] = burst
            return burst
        if now > last:
            self._tokens[tenant] = min(
                burst, self._tokens[tenant] + (now - last) * rate)
            self._refilled_ns[tenant] = now
        return self._tokens[tenant]

    def _need(self, tenant: str, entry: QueueEntry) -> float:
        rate, burst = self._limits(tenant)
        if rate is None:
            return 0.0
        return min(float(entry.cost), burst)

    def push(self, entry: QueueEntry) -> None:
        queue = self._queues.get(entry.tenant)
        if queue is None:
            queue = self._queues[entry.tenant] = deque()
        queue.append(entry)
        self._count += 1

    def _eligible_head(self, now: int) -> Optional[str]:
        """The tenant with the earliest-arrived *eligible* head entry."""
        best: Optional[str] = None
        best_seq = -1
        for tenant, queue in self._queues.items():
            head = queue[0]
            if self._refill(tenant, now) + self._EPS >= self._need(
                    tenant, head):
                if best is None or head.seq < best_seq:
                    best, best_seq = tenant, head.seq
        return best

    def pop(self, now: int = 0) -> QueueEntry:
        tenant = self._eligible_head(now)
        if tenant is None:
            # Forced dispatch (caller did not honor next_ready_ns):
            # earliest arrival overall, still charged to its bucket.
            tenant = min(self._queues, key=lambda t: self._queues[t][0].seq)
        queue = self._queues[tenant]
        entry = queue.popleft()
        if not queue:
            del self._queues[tenant]
        self._count -= 1
        rate, _ = self._limits(tenant)
        if rate is not None:
            self._refill(tenant, now)
            self._tokens[tenant] -= entry.cost
        return entry

    def next_ready_ns(self, now: int) -> Optional[int]:
        if not self._count:
            return None
        if self._eligible_head(now) is not None:
            return now
        ready: Optional[int] = None
        for tenant, queue in self._queues.items():
            rate, _ = self._limits(tenant)
            tokens = self._refill(tenant, now)
            deficit = self._need(tenant, queue[0]) - tokens
            wait = int(deficit / rate) + 1  # ceil, strictly future
            when = now + max(wait, 1)
            if ready is None or when < ready:
                ready = when
        return ready

    def __len__(self) -> int:
        return self._count


class StrictPriorityPolicy(SchedulerPolicy):
    """Highest ``priority`` first; FIFO within a priority level."""

    name = "priority"

    def __init__(self):
        super().__init__()
        self._heap: list = []

    def push(self, entry: QueueEntry) -> None:
        heapq.heappush(self._heap, (-entry.priority, entry.seq, entry))

    def pop(self, now: int = 0) -> QueueEntry:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


class EarliestDeadlinePolicy(SchedulerPolicy):
    """EDF: soonest absolute deadline first; deadline-less requests last."""

    name = "edf"

    _NO_DEADLINE = float("inf")

    def __init__(self):
        super().__init__()
        self._heap: list = []

    def push(self, entry: QueueEntry) -> None:
        key = (self._NO_DEADLINE if entry.deadline_ns is None
               else entry.deadline_ns)
        heapq.heappush(self._heap, (key, entry.seq, entry))

    def pop(self, now: int = 0) -> QueueEntry:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


POLICIES: Dict[str, type] = {
    "fifo": FIFOPolicy,
    "rr": RoundRobinPolicy,
    "wfq": WeightedFairPolicy,
    "token-bucket": TokenBucketPolicy,
    "priority": StrictPriorityPolicy,
    "edf": EarliestDeadlinePolicy,
}


def make_policy(policy: str) -> SchedulerPolicy:
    """A fresh policy named by ``policy`` (a :data:`POLICIES` key)."""
    try:
        return POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler policy {policy!r}; "
            f"known: {sorted(POLICIES)}") from None


class ScheduledResource:
    """A counted resource whose grant order is decided by a policy.

    ``request()`` returns an event that fires when a unit is granted;
    ``release()`` frees a unit and pumps the policy: whichever waiter
    it picks is granted immediately — unless the policy is rate-limited
    and reports no eligible waiter, in which case the resource parks a
    wakeup at the earliest refill instant.  The resource keeps no
    per-grant statistics: a caller that traces charges its wait to the
    request's ``queue`` stage.
    """

    def __init__(self, sim: Simulator, capacity: int, policy: str,
                 name: str = ""):
        if capacity < 1:
            raise ValueError(
                f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.policy = make_policy(policy)
        self.name = name
        self.in_use = 0
        self._seq = itertools.count()
        self._wakeup_at: Optional[int] = None

    def configure_tenant(self, tenant: str, **params) -> None:
        """Forward per-tenant QoS parameters to the policy."""
        self.policy.configure_tenant(tenant, **params)

    def request(self, tenant: str = "default", priority: int = 0,
                deadline_ns: Optional[int] = None, cost: int = 1) -> Event:
        """Event firing when the policy grants this waiter a unit.

        ``cost`` is the accounted quantity this grant consumes (bytes
        for I/O admission; 1 for unit-shaped resources).
        """
        event = Event(self.sim)
        entry = QueueEntry(next(self._seq), tenant, priority, deadline_ns,
                           event, cost=cost)
        self.policy.push(entry)
        self._pump()
        return event

    def release(self) -> None:
        if self.in_use <= 0:
            raise ValueError(f"release of idle resource {self.name!r}")
        self.in_use -= 1
        self._pump()

    def _pump(self) -> None:
        """Grant waiters while capacity is free and the policy is ready."""
        now = self.sim.now
        while self.in_use < self.capacity and len(self.policy):
            ready = self.policy.next_ready_ns(now)
            if ready is None:
                return
            if ready <= now:
                self.in_use += 1
                self.policy.pop(now).payload.succeed()
            else:
                self._park(ready)
                return

    def _park(self, when: int) -> None:
        """Schedule a pump at ``when`` (the earliest eligibility time)."""
        if self._wakeup_at is not None and self._wakeup_at <= when:
            return
        self._wakeup_at = when
        timeout = self.sim.timeout(when - self.sim.now)

        def _fire(event, when=when):
            if self._wakeup_at == when:
                self._wakeup_at = None
            self._pump()

        timeout.callbacks.append(_fire)
