"""Kernel fast-path guards: structure first, throughput floor second.

The DES hot loop carries three structural optimizations (see
``docs/architecture.md``): zero-delay events ride a FIFO ready lane
instead of the time heap, resolved-resource handshakes skip the
scheduler round-trip, and process resumption is one frame — a single
``Process._resume`` that calls a pre-bound ``generator.send``, for
event callbacks and direct ready-lane wakes alike.  The structural
tests pin those properties directly — they cannot flake.  The throughput floors are a coarse
backstop (set ~10x below measured rates on a developer machine) that
only trips when the kernel regresses wholesale, e.g. an accidental
re-introduction of per-event heap traffic or per-resume allocation.
"""

import time

import pytest

from repro.sim import Event, Process, SimulationError, Simulator, Store


# -- structure: the fast lanes exist ------------------------------------

def test_zero_delay_timeout_skips_the_heap():
    sim = Simulator()
    sim.timeout(0)
    assert len(sim._ready) == 1 and not sim._queue
    sim.timeout(5)
    assert len(sim._queue) == 1


def test_ready_lane_merges_with_heap_in_ticket_order():
    # Zero-delay wakes and heap entries at the same timestamp must
    # interleave in scheduling-ticket order — the exact-order contract
    # every byte-identical golden depends on.  Here "a" reaches t=5
    # first and immediately yields a zero-delay hop (ready lane), but
    # "b"'s heap timeout was scheduled before that hop, so "b" runs
    # between the two halves of "a".
    sim = Simulator()
    order = []

    def hopper(sim):
        yield sim.timeout(5)
        yield sim.timeout(0)
        order.append("a")

    def delayed(sim):
        yield sim.timeout(5)
        order.append("b")

    sim.process(hopper(sim))
    sim.process(delayed(sim))
    sim.run()
    assert order == ["b", "a"]


def test_one_resume_body():
    # No trampoline: callbacks and direct wakes both call _resume.
    assert not hasattr(Process, "_proceed")


def test_direct_wakes_carry_a_processed_event():
    sim = Simulator()
    store = Store(sim)
    store.put_nowait("x")
    waits = []

    def taker(sim):
        waits.append((yield store.get()))

    proc = sim.process(taker(sim))
    # The bootstrap: (ticket, None, resume, processed sentinel).
    ticket, none, resume, event = sim._ready[0]
    assert none is None and resume == proc._resume
    assert event.callbacks is None and event._ok
    sim._ready.popleft()
    resume(event)
    # An uncontended get is pre-resolved: the wake carries that event.
    ticket, none, resume, event = sim._ready[0]
    assert none is None and resume == proc._resume
    assert event.callbacks is None and event._value == "x"
    sim.run()
    assert waits == ["x"]


def test_processed_is_callbacks_none():
    # No separate processed flag: callbacks is None means processed.
    assert "_processed" not in Event.__slots__
    sim = Simulator()
    event = sim.timeout(0)
    sim.run()
    assert event.callbacks is None


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)
    # Fractional delays are truncated to whole nanoseconds.
    sim.timeout(2.9)
    assert sim._queue[0][0] == 2


# -- throughput floors: wholesale-regression backstop -------------------

def _rate(run, n):
    start = time.perf_counter()
    run()
    return n / (time.perf_counter() - start)


def test_zero_delay_pingpong_floor():
    n = 50_000
    sim = Simulator()

    def ping(sim):
        for _ in range(n):
            yield sim.timeout(0)

    sim.process(ping(sim))
    assert _rate(sim.run, n) > 100_000  # measured ~1.2M ops/s


def test_store_handoff_floor():
    n = 25_000
    sim = Simulator()
    store = Store(sim, capacity=16)

    def producer(sim):
        for i in range(n):
            yield store.put(i)

    def consumer(sim):
        for _ in range(n):
            yield store.get()

    sim.process(producer(sim))
    sim.process(consumer(sim))
    assert _rate(sim.run, n) > 40_000  # measured ~0.4M ops/s


def test_process_spawn_floor():
    n = 25_000
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)

    def parent(sim):
        for _ in range(n):
            yield sim.process(child(sim))

    sim.process(parent(sim))
    assert _rate(sim.run, n) > 30_000  # measured ~0.35M ops/s
