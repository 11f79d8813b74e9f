"""Discrete-event simulation kernel.

This module provides the event loop that every timing model in the
reproduction runs on.  It is deliberately small and SimPy-flavoured:
*processes* are Python generators that ``yield`` :class:`Event` objects and
are resumed when those events trigger.

Time is kept in integer **nanoseconds** so that scheduling is exact and
deterministic; helpers in :mod:`repro.sim.units` convert to and from the
microsecond/GB-per-second quantities the paper reports.

Performance
-----------
The kernel is the hot loop of every experiment, so it is built around
two observations profiled from the heavy scenarios (``qd_sweep``,
``gc_steady``, the open-loop arrival workloads):

* **Most events are immediate.**  80–90% of all scheduling calls carry
  ``delay == 0`` — process bootstraps, process completions, ``succeed()``
  wakeups, resource grants.  Those bypass the time-ordered heap entirely
  and ride a FIFO *ready lane* (a deque).  Global ordering is unchanged:
  every scheduling call still draws a ticket from one monotonic counter,
  and the loop compares the ready lane's head ticket against the heap
  top's ticket on time ties, so the merged order is exactly the order
  the single heap used to produce — results are bit-identical.
* **Process wakeups don't need Event objects.**  Bootstrapping a new
  process and resuming one that yielded an already-processed event
  used to allocate a throwaway ``Event`` each.  The
  ready lane carries those as plain ``(ticket, None, resume, value,
  ok)`` tuples instead — no allocation beyond the tuple, no callback
  list, one call to wake.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim):
...     yield sim.timeout(100)
...     log.append(sim.now)
>>> _ = sim.process(worker(sim))
>>> sim.run()
>>> log
[100]
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Simulator",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (not model errors)."""


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *pending*, becomes *triggered* once scheduled with a
    value, and is *processed* after its callbacks have run.  Processes wait
    on events by yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """False if the event carries an exception instead of a value."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with (or its exception)."""
        if not self._triggered:
            raise SimulationError("value of untriggered event")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully at the current time."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        # Inlined ready-lane schedule: succeed() is the single busiest
        # trigger path (resource grants, queue handoffs).
        sim = self.sim
        eid = sim._eid
        sim._eid = eid + 1
        sim._ready.append((eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters will see it raised."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.sim._schedule(self, 0)
        return self

    def __repr__(self) -> str:
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: int):
        # Fully inlined (no Event.__init__ / _schedule calls): timeouts
        # are the bulk of all heap traffic, so construction is one
        # straight-line body.
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = False
        eid = sim._eid
        sim._eid = eid + 1
        if delay:
            heapq.heappush(sim._queue, (sim.now + delay, eid, self))
        else:
            sim._ready.append((eid, self))


class Process(Event):
    """A running coroutine; itself an event that fires when it returns.

    The wrapped generator yields :class:`Event` objects.  When a yielded
    event triggers, the generator is resumed with the event's value (or the
    event's exception is thrown into it).
    """

    __slots__ = ("_generator", "_send", "_name")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: str = ""):
        # Binding .send up front both validates the argument and saves
        # an attribute lookup on every resume.
        try:
            self._send = generator.send
        except AttributeError:
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            ) from None
        # Inlined Event.__init__ (one process per modeled operation adds
        # up — see the module docstring).
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._generator = generator
        self._name = name
        # Bootstrap: first resume at the current time, in scheduling
        # order — a direct ready-lane wake, no throwaway Event.
        eid = sim._eid
        sim._eid = eid + 1
        sim._ready.append((eid, None, self._proceed, None, True))

    @property
    def name(self) -> str:
        """Diagnostic label (lazy: most processes are never named)."""
        return (self._name or getattr(self._generator, "__name__", "process"))

    def _resume(self, event: Event) -> None:
        """Callback form of :meth:`_proceed`, attached to real events."""
        self._proceed(event._value, event._ok)

    def _proceed(self, value: Any, ok: bool) -> None:
        sim = self.sim
        try:
            if ok:
                result = self._send(value)
            else:
                result = self._generator.throw(value)
        except StopIteration as stop:
            self._triggered = True
            self._value = stop.value
            eid = sim._eid
            sim._eid = eid + 1
            sim._ready.append((eid, self))
            return
        except BaseException as exc:
            self._triggered = True
            self._ok = False
            self._value = exc
            if not self.callbacks:
                # Nobody is waiting on this process: crash the simulation
                # rather than silently swallow the error.
                raise
            sim._schedule(self, 0)
            return
        try:
            callbacks = result.callbacks
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded {result!r}, expected an Event"
            ) from None
        if callbacks is not None:
            callbacks.append(self._resume)
        elif isinstance(result, Event):
            # Already processed: resume immediately at the current time.
            eid = sim._eid
            sim._eid = eid + 1
            sim._ready.append((eid, None, self._proceed,
                               result._value, result._ok))
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {result!r}, expected an Event"
            )


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        Event.__init__(self, sim)
        self.events = list(events)
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if self._triggered:
                # An earlier already-processed constituent decided the
                # composite; don't leave dead callbacks on the rest.
                break
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _detach(self) -> None:
        """Drop ``_check`` from every still-pending constituent.

        Once the composite has fired, the losing siblings must not keep
        a reference to it: a long-lived pending event re-used across
        many ``any_of`` waits (a Session worker's in-flight request
        window, open-loop in-flight tails) would otherwise accumulate
        one dead callback per wait — unbounded memory growth and a
        linear callback scan when it finally fires.
        """
        check = self._check
        for ev in self.events:
            callbacks = ev.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(check)
                except ValueError:
                    pass

    def _results(self) -> dict:
        return {
            i: ev._value
            for i, ev in enumerate(self.events)
            if ev._triggered
        }


class AllOf(_Condition):
    """Fires when every constituent event has fired."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            self._detach()
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._results())


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self.succeed(self._results())
        self._detach()


class Simulator:
    """The event loop: a time-ordered heap plus an immediate ready lane.

    All model components share one :class:`Simulator`; its :attr:`now` is
    the global clock in nanoseconds.

    Scheduling draws a ticket from one monotonic counter regardless of
    which structure the event lands in, and the loop merges the two
    sources by ``(time, ticket)``, so firing order is identical to a
    single global priority queue — deterministic FIFO within a
    timestamp.

    ``now`` is a plain attribute (read ~once per model statement, so a
    property would be measurable overhead); treat it as read-only.
    """

    def __init__(self):
        #: (time, ticket, event) min-heap for delayed events.
        self._queue: list = []
        #: FIFO of immediate work at the current time.  Entries are
        #: ``(ticket, event)`` for zero-delay events and
        #: ``(ticket, None, resume, value, ok)`` for direct process
        #: wakes that need no Event object.
        self._ready: deque = deque()
        #: Next scheduling ticket (a plain int beats itertools.count at
        #: this call volume).
        self._eid = 0
        #: Current simulated time in nanoseconds (read-only).
        self.now = 0

    # -- event construction helpers ------------------------------------
    def event(self) -> Event:
        """A fresh pending event, to be succeeded/failed by a model."""
        return Event(self)

    def timeout(self, delay: int) -> Timeout:
        """An event firing ``delay`` ns from now."""
        return Timeout(self, int(delay))

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a concurrently-running process."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling / main loop ----------------------------------------
    def _schedule(self, event: Event, delay: int) -> None:
        """Enqueue ``event`` to fire ``delay`` ns from now.

        ``delay == 0`` rides the ready lane (O(1), no heap traffic);
        negative delays are a model bug and fail here, at the call
        site, instead of surfacing later deep inside :meth:`run`.
        """
        eid = self._eid
        self._eid = eid + 1
        if delay == 0:
            self._ready.append((eid, event))
        elif delay > 0:
            heapq.heappush(self._queue, (self.now + delay, eid, event))
        else:
            raise SimulationError(
                f"cannot schedule {event!r} at negative delay {delay} "
                f"(now={self.now})")

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or the clock reaches ``until`` ns."""
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self.now})")
        queue, ready = self._queue, self._ready
        heappop = heapq.heappop
        popleft = ready.popleft
        while True:
            # This loop runs once per event, so it is one inlined body:
            # call/branch overhead is measurable at millions of events.
            # Ready entries are always at the current time; the heap
            # only wins when its top shares that time with an earlier
            # ticket.
            if ready:
                event = None
                if queue:
                    head = queue[0]
                    if head[0] == self.now and head[1] < ready[0][0]:
                        event = heappop(queue)[2]
                if event is None:
                    entry = popleft()
                    event = entry[1]
                    if event is None:
                        # Direct process wake — no Event, no callbacks.
                        entry[2](entry[3], entry[4])
                        continue
            elif queue:
                head = queue[0]
                when = head[0]
                if until is not None and when > until:
                    self.now = until
                    return
                event = heappop(queue)[2]
                self.now = when
            else:
                break
            callbacks = event.callbacks
            event.callbacks = None
            event._processed = True
            for callback in callbacks:
                callback(event)
        if until is not None:
            self.now = until

    def run_process(self, generator: Generator) -> Any:
        """Convenience: run ``generator`` to completion and return its value.

        Raises the process's exception if it failed.  Other concurrently
        registered processes keep running as usual.
        """
        proc = self.process(generator)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} deadlocked (event queue drained)")
        if not proc.ok:
            raise proc._value
        return proc._value

    def pipeline(self, generators: Iterable[Generator], depth: int):
        """Run ``generators`` with at most ``depth`` in flight, in order.

        The in-order issue window (DES generator): each generator starts
        as its own process; once ``depth`` are pending, the oldest is
        awaited before the next starts, and the tail drains in issue
        order.  Returns the processes' values in issue order.  Drive it
        with ``yield from`` inside a model, or
        ``sim.run_process(sim.pipeline(...))`` at top level.
        """
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        results = []
        pending: deque = deque()
        for generator in generators:
            pending.append(self.process(generator))
            if len(pending) >= depth:
                results.append((yield pending.popleft()))
        while pending:
            results.append((yield pending.popleft()))
        return results
