"""Tests for the discrete-event simulation kernel."""

import itertools
import random

import pytest

from repro.api import ScenarioSpec, Session, TenantSpec, WorkloadSpec
from repro.flash import FlashGeometry
from repro.sim import (
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


class TestSessionWindow:
    """``Session``'s any-order request window waits on one wake event
    per round, succeeded by the round's first completion."""

    GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2,
                        blocks_per_chip=4, pages_per_block=4,
                        page_size=64, cards_per_node=1)

    def drive(self, scripts, depth, deadline):
        """Run one ISP window worker whose ``k``-th operation waits out
        the delays of ``scripts``' ``k``-th entry.  Returns the times the
        worker resumed, the completions counted and the final clock."""
        tenant = TenantSpec("t", access="isp", workers=1)
        session = Session(ScenarioSpec(
            name="window", geometry=self.GEO,
            workload=WorkloadSpec(duration_ns=deadline, queue_depth=depth,
                                  tenants=(tenant,))))
        sim = session.sim
        scripts = iter(scripts)

        def issue(kind, index):
            for delay in next(scripts):
                yield sim.timeout(delay)

        resumes = []

        def watched(worker):
            value = None
            while True:
                try:
                    event = worker.send(value)
                except StopIteration:
                    return
                value = yield event
                resumes.append(sim.now)

        counters = {"t": 0}
        sim.process(watched(session._async_worker(
            tenant, random.Random(0), 0, issue, deadline, counters, depth)))
        sim.run()
        return resumes, counters["t"], sim.now

    def test_one_resume_per_completion_round(self):
        # Ops 1 and 2 finish at t=5, op 2 only after the wake fired; op 3
        # finishes at t=20, the two refills at t=25.  The worker resumes
        # once at t=5 and once at t=20: op 2's late completion is
        # counted but wakes no later round.
        resumes, completed, now = self.drive(
            [[5], [5, 0], [20], [20], [20]], depth=3, deadline=10)
        assert resumes == [5, 20]
        assert completed == 5
        assert now == 25

    def test_zero_time_rounds_still_advance_time(self):
        # Every op completes in zero simulated time: each round is
        # followed by a 1 ns step, so the window closes at the deadline.
        resumes, completed, now = self.drive(
            itertools.repeat([0]), depth=2, deadline=3)
        assert resumes == [0, 1, 1, 2, 2, 3]
        assert completed == 6
        assert now == 3


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
