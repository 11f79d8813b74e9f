"""Request coalescing at splitter admission: merge adjacent pages.

The card pays a per-command setup cost (tag allocation, command
issue/decode) for every operation, and every command occupies one
admission slot.  Under deep queues that overhead is the difference
between the advertised bandwidth and what a one-page-per-command
interface reaches — so the splitter grows a *coalescing stage*: page
operations arriving at a port are staged briefly, stripe-adjacent
requests from the same tenant merge into one multi-page command (at most
``max_pages``, never across a card boundary), and the merged command
takes one port slot, one admission grant whose *cost* is the combined
payload bytes, and one card command.

Adjacency is *stripe order* (:meth:`~repro.flash.geometry.FlashGeometry.
striped_index`): the order a controller lays out sequential data, so a
sequential reader's outstanding window merges into full-width commands
while a random reader's almost never does.

Grouping is greedy in arrival order and is factored into the pure
:func:`first_group` helper so property tests can drive the planner
without a simulator: groups partition their input exactly, stay within
one tenant and one card, take stripe-consecutive pages only, and never
exceed the page cap.

One :class:`Coalescer` engine serves every site; two constructor
arguments say what differs:

* ``op`` — the card command a group becomes: ``"read"``
  (:meth:`~repro.flash.controller.FlashCard.read_pages`, with per-child
  settlement of a :class:`~repro.flash.controller.PartialReadError`) or
  ``"program"`` (:meth:`~repro.flash.controller.FlashCard.program_pages`).
* ``paced`` — whether dispatch waits for slot headroom.  A *greedy*
  stage (the local read stage) carves a group the moment staging is
  non-empty, which merges a closed-loop window that arrives within one
  timestep.  A *paced* stage (the program stage, the distributed
  volume's remote read stage) carves only while it holds fewer than the
  port's slot cap of its own commands, so arrivals that trickle in
  while every slot is busy accumulate and merge when a slot frees.
  That wait is queueing, so a paced stage charges staging time to the
  request's ``queue`` stage.

The merged command completes as a unit — one completion message per
command, like the tagged interface underneath, handing each staged read
its own page's bytes — so a closed-loop submitter gets its whole window
back at once and refills it with the next adjacent run, which is what
keeps commands wide in steady state.
Commands from different tenants/groups still complete out of order with
respect to each other.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from ..io import IORequest
from ..sim import Event, Simulator
from .controller import PartialReadError

__all__ = ["Coalescer", "first_group"]

#: (tenant, card-identity, stripe index) — the only attributes the
#: grouping rule reads.
GroupKey = Tuple[str, object, int]

#: Card operations a coalescing stage can merge into.
OPS = ("read", "program")


def first_group(keys: Sequence[GroupKey], max_pages: int) -> List[int]:
    """Positions forming the next merged command, greedy from the head.

    The head entry (position 0) always dispatches; later entries join
    in arrival order while each extends the run by exactly one stripe
    index, shares the head's tenant and card, and the group stays
    within ``max_pages``.
    """
    if max_pages < 1:
        raise ValueError(f"max_pages must be >= 1, got {max_pages}")
    if not keys:
        return []
    tenant, card, last = keys[0]
    group = [0]
    taken = {0}
    while len(group) < max_pages:
        for pos in range(1, len(keys)):
            if pos in taken:
                continue
            t, c, index = keys[pos]
            if t == tenant and c == card and index == last + 1:
                group.append(pos)
                taken.add(pos)
                last = index
                break
        else:
            break
    return group


def _carve(staging, max_pages: int):
    """Take the next merged command's members off a staging deque.

    Returns ``(group, remaining)``; the grouping rule itself is
    :func:`first_group`.
    """
    positions = first_group([p.key for p in staging], max_pages)
    taken = set(positions)
    group = [staging[pos] for pos in positions]
    remaining = deque(p for pos, p in enumerate(staging)
                      if pos not in taken)
    return group, remaining


class _Pending:
    """One staged page operation awaiting merge + dispatch."""

    __slots__ = ("addr", "key", "request", "event", "data", "size")

    def __init__(self, addr, key: GroupKey, request: Optional[IORequest],
                 event: Event, data: Optional[bytes], size: int):
        self.addr = addr
        self.key = key
        self.request = request
        self.event = event
        self.data = data
        self.size = size


class Coalescer:
    """A per-port coalescing stage in front of splitter admission.

    ``submit`` stages a page operation and returns its completion event
    (value: the page's bytes for reads, None for programs); a
    dispatcher process drains the staging queue, merging adjacent runs
    per :func:`first_group` and launching one admission + card command
    per group.  Everything that arrives within one simulator timestep
    is visible to the same dispatch round, so a queue-depth-N
    submitter's whole window can merge.

    For programs, groups are *strict* ``+1`` striped-index runs taken
    off the open write point, so a merged command can never jump across
    an already-programmed page nor reorder programs within a block
    (and :meth:`~repro.flash.controller.FlashCard.program_pages`
    re-checks both rules before touching the card).
    """

    def __init__(self, port, max_pages: int, op: str = "read",
                 paced: bool = False):
        if max_pages < 2:
            raise ValueError(
                f"coalescing needs max_pages >= 2, got {max_pages}")
        if op not in OPS:
            raise ValueError(f"unknown coalescing op {op!r}; "
                             f"expected one of {OPS}")
        self.port = port
        self.splitter = port.splitter
        self.sim: Simulator = port.splitter.sim
        self.max_pages = max_pages
        self.op = op
        self.paced = paced
        self._page_size = port.splitter.page_size
        self._staging: Deque[_Pending] = deque()
        self._gate: Optional[Event] = None
        self._slot_gate: Optional[Event] = None
        self._inflight = 0
        #: commands dispatched / pages carried / pages that rode a
        #: multi-page command (the amortized ones).
        self.commands = 0
        self.pages = 0
        self.merged_pages = 0
        self.sim.process(self._dispatch(),
                         name=f"{op}-coalescer-{port.tenant}")

    # -- intake ---------------------------------------------------------
    def submit(self, addr, request: Optional[IORequest],
               data: Optional[bytes] = None) -> Event:
        """Stage one page (``data`` for a program); returns the event
        its completion rides on."""
        geometry = self.splitter.geometry
        key: GroupKey = (self.port.sched_tenant(request),
                         addr[:2],  # (node, card)
                         geometry.striped_index(addr))
        size = self._page_size if data is None else len(data)
        pending = _Pending(addr, key, request, Event(self.sim), data, size)
        # A paced stage holds work here while the port's slots are
        # busy, exactly where the uncoalesced path would have waited on
        # the slot itself — charge it to the same stage so on/off
        # traces stay comparable.
        if self.paced and request:
            request.enter("queue", self.sim.now)
        self._staging.append(pending)
        if self._gate is not None and not self._gate.triggered:
            self._gate.succeed()
        return pending.event

    @property
    def pages_per_command(self) -> float:
        """Mean merged width over the coalescer's lifetime."""
        return self.pages / self.commands if self.commands else 0.0

    def stats(self) -> dict:
        return {"commands": self.commands, "pages": self.pages,
                "merged_pages": self.merged_pages,
                "pages_per_command": self.pages_per_command}

    # -- dispatch -------------------------------------------------------
    def _dispatch(self):
        """Forever: wait for staged work (and, when paced, slot
        headroom), carve a group, launch it."""
        sim = self.sim
        while True:
            if not self._staging:
                self._gate = sim.event()
                yield self._gate
                self._gate = None
            while self.paced and self._inflight >= self.port.max_in_flight:
                self._slot_gate = sim.event()
                yield self._slot_gate
                self._slot_gate = None
            group, self._staging = _carve(self._staging, self.max_pages)
            if self.paced:
                now = sim.now
                for pending in group:
                    if pending.request:
                        pending.request.exit("queue", now)
            self._inflight += 1
            sim.process(self._execute(group))

    def _release_pacing_slot(self) -> None:
        """One of this stage's commands gave back its pacing slot."""
        self._inflight -= 1
        if self._slot_gate is not None and not self._slot_gate.triggered:
            self._slot_gate.succeed()

    def _execute(self, group: List[_Pending]):
        """Admit and run one merged command; settle every child.

        Admission charges the merged payload as one queue entry —
        ``cost`` in bytes (the sum of the children's sizes), ``pages``
        wide — so WFQ/token-bucket arbitrate the real load while the
        command occupies a single slot; QoS identity comes from the
        group head exactly as the unmerged path takes it from each
        request.  A failure anywhere fails the children, never the
        simulation: this process has no waiter.
        """
        port = self.port
        splitter = self.splitter
        tenant = group[0].key[0]
        cost = sum(p.size for p in group)
        requests = [p.request for p in group]
        try:
            yield from port._admit(group[0].request, cost, batch=requests)
        except Exception as exc:
            self._release_pacing_slot()
            for pending in group:
                pending.event.fail(exc)
            return
        self.commands += 1
        self.pages += len(group)
        if len(group) > 1:
            self.merged_pages += len(group)
        addrs = [p.addr for p in group]
        failed = True
        try:
            # A group never spans cards (``first_group``), so its head
            # names the card the whole command runs on.
            card = splitter.device.card_of(addrs[0])
            if self.op == "read":
                results = yield from card.read_pages(addrs,
                                                     requests=requests)
            else:
                results = yield from card.program_pages(
                    addrs, [p.data for p in group], requests=requests)
            failed = False
        except PartialReadError as exc:
            # Per-child fidelity: successful siblings keep their pages
            # (and their served bytes), only the bad ones fail — the
            # same outcome each would have seen unmerged.
            splitter.bandwidth.record(tenant, sum(
                p.size for p, data in zip(group, exc.results)
                if data is not None))
            for pending, data, error in zip(group, exc.results,
                                            exc.errors):
                if error is not None:
                    pending.event.fail(error)
                else:
                    pending.event.succeed(data)
            return
        except Exception as exc:
            for pending in group:
                pending.event.fail(exc)
            return
        finally:
            port._retire()
            # A program gives its pacing slot back at the card's ack; a
            # read holds it until its pages are handed back below.
            if failed or self.op == "program":
                self._release_pacing_slot()
        splitter.bandwidth.record(tenant, cost)
        for pending, data in zip(group, results or [None] * len(group)):
            pending.event.succeed(data)
        if self.op == "read":
            self._release_pacing_slot()
