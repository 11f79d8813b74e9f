"""Shared resources for simulation processes.

The hardware the paper describes is built almost entirely from
latency-insensitive FIFOs with backpressure (Section 5: "Most of the
interfaces are latency-insensitive FIFOs with backpressure").  These
classes model that world:

* :class:`Store` — a bounded FIFO; ``put`` blocks when full, ``get``
  blocks when empty.  The universal backpressured channel.
* :class:`Resource` — counted resource (e.g. DMA engines, bus slots).
* :class:`CreditPool` — token/credit counter used by the link-layer
  token-based flow control (Section 3.2.2).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .core import Event, Simulator, SimulationError

__all__ = ["Store", "Resource", "CreditPool"]


def _resolved(event: Event, value: Any = None) -> Event:
    """Pre-resolve ``event``: triggered, processed, no callback list.

    The uncontended fast path of every primitive below.  A process
    yielding an already-processed event is resumed through the
    kernel's ready lane with a ticket drawn at the ``yield`` — and
    since every call site yields the returned event immediately (no
    scheduling happens between the call and the yield), that ticket
    occupies exactly the queue position the ``succeed()`` ticket would
    have: firing order is unchanged, but the grant skips the
    ready-queue round trip (succeed + callback registration + one
    whole kernel step).  Only taken when no other process is waiting
    on the primitive, so no third party's wakeup can reorder around
    it.
    """
    event._triggered = True
    event._value = value
    event.callbacks = None
    return event


class StorePut(Event):
    """Pending put; fires when the item has been accepted."""

    __slots__ = ("item",)

    def __init__(self, sim: Simulator, item: Any):
        super().__init__(sim)
        self.item = item


class StoreGet(Event):
    """Pending get; fires with the item as its value."""

    __slots__ = ()


class Store:
    """A bounded FIFO queue connecting producer and consumer processes.

    ``capacity=None`` means unbounded (puts never block).  Items are
    delivered in strict FIFO order, which several paper invariants rely on
    (e.g. per-endpoint packet ordering, Figure 6).
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = ""):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store capacity must be >=1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> StorePut:
        """Enqueue ``item``; the returned event fires once space existed."""
        if not self._putters and not self._getters and not self.is_full:
            self.items.append(item)
            return _resolved(StorePut(self.sim, item))
        event = StorePut(self.sim, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self) -> StoreGet:
        """Dequeue; the returned event fires with the front item."""
        if self.items and not self._getters and not self._putters:
            return _resolved(StoreGet(self.sim), self.items.popleft())
        event = StoreGet(self.sim)
        self._getters.append(event)
        self._dispatch()
        return event

    def put_nowait(self, item: Any) -> None:
        """Non-blocking put; raises if a bounded store is full.

        Wakes waiting getters synchronously.  Use for returns to
        unbounded pools (e.g. tag free-lists) where blocking — and thus
        a ``yield`` inside ``finally`` — must be avoided.
        """
        if self.is_full:
            raise SimulationError(f"put_nowait on full store {self.name!r}")
        self.items.append(item)
        self._dispatch()

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Accept puts while there is room.
            while self._putters and not self.is_full:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progressed = True
            # Serve gets while there are items.
            while self._getters and self.items:
                get = self._getters.popleft()
                get.succeed(self.items.popleft())
                progressed = True


class Resource:
    """A counted resource with FIFO request ordering.

    ``request()`` returns an event firing when a unit is granted;
    ``release()`` returns the unit.  Models DMA engines, per-bus command
    slots, accelerator units shared by applications, etc.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >=1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def request(self) -> Event:
        if self.in_use < self.capacity and not self._waiters:
            self.in_use += 1
            return _resolved(Event(self.sim))
        event = Event(self.sim)
        self._waiters.append(event)
        return event

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the unit straight to the next waiter.
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1


class CreditPool:
    """Token-based flow-control credits (link layer, Section 3.2.2).

    A sender takes credits before transmitting; the receiver returns them
    as it drains its buffer.  ``take`` blocks (in FIFO order) until enough
    credits are available, providing lossless backpressure.
    """

    def __init__(self, sim: Simulator, initial: int, name: str = ""):
        if initial < 0:
            raise SimulationError(f"negative initial credits {initial}")
        self.sim = sim
        self.name = name
        self.credits = initial
        self._waiters: Deque[tuple] = deque()

    def take(self, amount: int = 1) -> Event:
        """Event firing once ``amount`` credits have been claimed."""
        if amount < 1:
            raise SimulationError(f"credit take amount must be >=1, got {amount}")
        if not self._waiters and amount <= self.credits:
            self.credits -= amount
            return _resolved(Event(self.sim))
        event = Event(self.sim)
        self._waiters.append((event, amount))
        self._dispatch()
        return event

    def give(self, amount: int = 1) -> None:
        """Return ``amount`` credits to the pool."""
        if amount < 1:
            raise SimulationError(f"credit give amount must be >=1, got {amount}")
        self.credits += amount
        self._dispatch()

    def _dispatch(self) -> None:
        while self._waiters and self._waiters[0][1] <= self.credits:
            event, amount = self._waiters.popleft()
            self.credits -= amount
            event.succeed()
