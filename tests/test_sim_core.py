"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


class TestTimeout:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_timeout_advances_clock(self, sim):
        def proc(sim):
            yield sim.timeout(250)
            return sim.now

        assert sim.run_process(proc(sim)) == 250

    def test_timeout_value_passthrough(self, sim):
        def proc(sim):
            got = yield sim.timeout(10)
            return got

        assert sim.run_process(proc(sim)) is None

    def test_zero_delay_allowed(self, sim):
        def proc(sim):
            yield sim.timeout(0)
            return sim.now

        assert sim.run_process(proc(sim)) == 0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_sequential_timeouts_accumulate(self, sim):
        def proc(sim):
            yield sim.timeout(100)
            yield sim.timeout(200)
            yield sim.timeout(300)
            return sim.now

        assert sim.run_process(proc(sim)) == 600


class TestProcessSemantics:
    def test_two_processes_interleave(self, sim):
        log = []

        def ticker(sim, name, period, count):
            for _ in range(count):
                yield sim.timeout(period)
                log.append((sim.now, name))

        sim.process(ticker(sim, "a", 100, 3))
        sim.process(ticker(sim, "b", 150, 2))
        sim.run()
        # At t=300 both fire; b's timeout was scheduled first (at t=150)
        # so deterministic FIFO tie-breaking runs it first.
        assert log == [
            (100, "a"), (150, "b"), (200, "a"), (300, "b"), (300, "a"),
        ]

    def test_process_return_value(self, sim):
        def child(sim):
            yield sim.timeout(5)
            return 42

        def parent(sim):
            value = yield sim.process(child(sim))
            return value + 1

        assert sim.run_process(parent(sim)) == 43

    def test_waiting_on_finished_process(self, sim):
        def child(sim):
            yield sim.timeout(1)
            return "done"

        def parent(sim, childproc):
            yield sim.timeout(50)
            value = yield childproc
            return (sim.now, value)

        childproc = sim.process(child(sim))
        assert sim.run_process(parent(sim, childproc)) == (50, "done")

    def test_exception_propagates_to_waiter(self, sim):
        def child(sim):
            yield sim.timeout(1)
            raise ValueError("boom")

        def parent(sim):
            try:
                yield sim.process(child(sim))
            except ValueError as exc:
                return str(exc)
            return "no error"

        assert sim.run_process(parent(sim)) == "boom"

    def test_unhandled_exception_crashes_run(self, sim):
        def bad(sim):
            yield sim.timeout(1)
            raise RuntimeError("unwatched")

        sim.process(bad(sim))
        with pytest.raises(RuntimeError, match="unwatched"):
            sim.run()

    def test_yielding_non_event_is_error(self, sim):
        def bad(sim):
            yield 17

        sim.process(bad(sim))
        with pytest.raises(SimulationError):
            sim.run()

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_run_process_detects_deadlock(self, sim):
        def stuck(sim):
            yield sim.event()  # never triggered

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_process(stuck(sim))


class TestEvents:
    def test_manual_succeed_wakes_waiter(self, sim):
        ev = sim.event()

        def waiter(sim):
            value = yield ev
            return (sim.now, value)

        def firer(sim):
            yield sim.timeout(77)
            ev.succeed("fired")

        sim.process(firer(sim))
        assert sim.run_process(waiter(sim)) == (77, "fired")

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_raises_in_waiter(self, sim):
        ev = sim.event()

        def waiter(sim):
            try:
                yield ev
            except KeyError:
                return "caught"

        def firer(sim):
            yield sim.timeout(1)
            ev.fail(KeyError("k"))

        sim.process(firer(sim))
        assert sim.run_process(waiter(sim)) == "caught"

    def test_fail_requires_exception(self, sim):
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")

    def test_value_of_pending_event_is_error(self, sim):
        with pytest.raises(SimulationError):
            _ = sim.event().value


class TestConditions:
    def test_all_of_waits_for_slowest(self, sim):
        def proc(sim):
            events = [sim.timeout(10), sim.timeout(30), sim.timeout(20)]
            yield sim.all_of(events)
            return sim.now

        assert sim.run_process(proc(sim)) == 30

    def test_any_of_fires_on_fastest(self, sim):
        def proc(sim):
            events = [sim.timeout(10), sim.timeout(30)]
            yield sim.any_of(events)
            return sim.now

        assert sim.run_process(proc(sim)) == 10

    def test_all_of_empty_fires_immediately(self, sim):
        def proc(sim):
            yield sim.all_of([])
            return sim.now

        assert sim.run_process(proc(sim)) == 0

    def test_all_of_collects_values(self, sim):
        def fire(sim, event, delay, value):
            yield sim.timeout(delay)
            event.succeed(value)

        def proc(sim):
            events = [sim.event(), sim.event()]
            sim.process(fire(sim, events[0], 1, "x"))
            sim.process(fire(sim, events[1], 2, "y"))
            results = yield sim.all_of(events)
            return results

        assert sim.run_process(proc(sim)) == {0: "x", 1: "y"}


class TestRunControl:
    def test_run_until_stops_clock(self, sim):
        def proc(sim):
            yield sim.timeout(500)

        sim.process(proc(sim))
        sim.run(until=100)
        assert sim.now == 100

    def test_run_until_past_is_error(self, sim):
        def proc(sim):
            yield sim.timeout(500)

        sim.process(proc(sim))
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=100)

    def test_deterministic_fifo_order_same_timestamp(self, sim):
        log = []

        def proc(sim, name):
            yield sim.timeout(10)
            log.append(name)

        for name in ["p0", "p1", "p2"]:
            sim.process(proc(sim, name))
        sim.run()
        assert log == ["p0", "p1", "p2"]


class TestPipeline:
    def test_results_in_issue_order_when_later_finishes_first(self, sim):
        finished = []

        def op(name, delay):
            yield sim.timeout(delay)
            finished.append(name)
            return name

        results = sim.run_process(sim.pipeline(
            (op(name, delay) for name, delay in
             [("slow", 300), ("fast", 10), ("mid", 100)]), depth=3))
        assert finished == ["fast", "mid", "slow"]
        assert results == ["slow", "fast", "mid"]
        assert sim.now == 300

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_at_most_depth_alive(self, sim, depth):
        alive = [0]
        peak = [0]

        def op(i):
            alive[0] += 1
            peak[0] = max(peak[0], alive[0])
            yield sim.timeout(10 + (i * 7) % 13)
            alive[0] -= 1
            return i

        results = sim.run_process(sim.pipeline(
            (op(i) for i in range(12)), depth))
        assert results == list(range(12))
        assert peak[0] == depth

    def test_depth_beyond_count_drains(self, sim):
        def op(i):
            yield sim.timeout(50 - 10 * i)
            return i * i

        results = sim.run_process(sim.pipeline(
            (op(i) for i in range(4)), depth=16))
        assert results == [0, 1, 4, 9]
        # All four overlapped: the slowest alone sets the end time.
        assert sim.now == 50

    def test_empty_and_bad_depth(self, sim):
        assert sim.run_process(sim.pipeline(iter(()), 4)) == []
        with pytest.raises(ValueError, match="depth"):
            sim.run_process(sim.pipeline(iter(()), 0))
