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
* **Process wakeups don't need fresh Event objects.**  Bootstrapping
  a new process and resuming one that yielded an already-processed
  event used to allocate a throwaway ``Event`` each.  The ready lane
  carries those as plain ``(ticket, None, resume, event)`` tuples
  instead, where ``event`` is the already-processed event itself (a
  shared processed sentinel for the bootstrap) — no allocation beyond
  the tuple, no callback list, and one frame per wake: the same
  ``Process._resume`` that real events call back.

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
    "Simulator",
    "SimulationError",
]


_new = object.__new__


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (not model errors)."""


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *pending*, becomes *triggered* once scheduled with a
    value, and is *processed* after its callbacks have run — marked by
    ``callbacks`` becoming ``None``.  Processes wait on events by
    yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """False if the event carries an exception instead of a value."""
        return self._ok

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
        state = "processed" if self.callbacks is None else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now}>"


#: The already-processed event a new process's bootstrap wake carries:
#: resuming with it sends ``None``, which starts the generator.
_STARTED = Event(None)
_STARTED._triggered = True
_STARTED.callbacks = None


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation.

    Built only by :meth:`Simulator.timeout`, in one frame.
    """

    __slots__ = ()


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
        self._generator = generator
        self._name = name
        # Bootstrap: first resume at the current time, in scheduling
        # order — a direct ready-lane wake, no throwaway Event.
        eid = sim._eid
        sim._eid = eid + 1
        sim._ready.append((eid, None, self._resume, _STARTED))

    def _resume(self, event: Event) -> None:
        """Resume the generator with ``event``'s outcome.

        The one resume body: real events call it back, and direct
        ready-lane wakes call it with the already-processed event.
        """
        sim = self.sim
        try:
            if event._ok:
                result = self._send(event._value)
            else:
                result = self._generator.throw(event._value)
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
                f"process {self._name or self._generator.__name__!r} "
                f"yielded {result!r}, expected an Event") from None
        if callbacks is not None:
            callbacks.append(self._resume)
        elif isinstance(result, Event):
            # Already processed: resume immediately at the current time.
            eid = sim._eid
            sim._eid = eid + 1
            sim._ready.append((eid, None, self._resume, result))
        else:
            raise SimulationError(
                f"process {self._name or self._generator.__name__!r} "
                f"yielded {result!r}, expected an Event")


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
        #: ``(ticket, None, resume, event)`` for direct process wakes
        #: on an already-processed event.
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
        delay = int(delay)
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        # One straight-line frame (no Timeout.__init__, no _schedule):
        # timeouts are the bulk of all heap traffic.
        event = _new(Timeout)
        event.sim = self
        event.callbacks = []
        event._value = None
        event._ok = True
        event._triggered = True
        eid = self._eid
        self._eid = eid + 1
        if delay:
            heapq.heappush(self._queue, (self.now + delay, eid, event))
        else:
            self._ready.append((eid, event))
        return event

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a concurrently-running process."""
        return Process(self, generator, name)

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
                        # Direct process wake on a processed event.
                        entry[2](entry[3])
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
                f"process {generator.__name__!r} deadlocked (event queue "
                f"drained)")
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
