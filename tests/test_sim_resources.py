"""Tests for Store, Resource and CreditPool."""

import pytest

from repro.sim import CreditPool, Resource, SimulationError, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)

        def proc(sim):
            yield store.put("item")
            value = yield store.get()
            return value

        assert sim.run_process(proc(sim)) == "item"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def consumer(sim):
            value = yield store.get()
            return (sim.now, value)

        def producer(sim):
            yield sim.timeout(99)
            yield store.put("late")

        sim.process(producer(sim))
        assert sim.run_process(consumer(sim)) == (99, "late")

    def test_put_blocks_when_full(self, sim):
        store = Store(sim, capacity=1)
        log = []

        def producer(sim):
            yield store.put(1)
            log.append(("put1", sim.now))
            yield store.put(2)
            log.append(("put2", sim.now))

        def consumer(sim):
            yield sim.timeout(50)
            yield store.get()

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert log == [("put1", 0), ("put2", 50)]

    def test_fifo_order(self, sim):
        store = Store(sim)
        received = []

        def producer(sim):
            for i in range(5):
                yield store.put(i)

        def consumer(sim):
            for _ in range(5):
                value = yield store.get()
                received.append(value)

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert received == [0, 1, 2, 3, 4]

    def test_multiple_getters_served_fifo(self, sim):
        store = Store(sim)
        order = []

        def getter(sim, name):
            value = yield store.get()
            order.append((name, value))

        def producer(sim):
            yield sim.timeout(10)
            yield store.put("a")
            yield store.put("b")

        sim.process(getter(sim, "g0"))
        sim.process(getter(sim, "g1"))
        sim.process(producer(sim))
        sim.run()
        assert order == [("g0", "a"), ("g1", "b")]

    def test_zero_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Store(sim, capacity=0)

    def test_len_tracks_contents(self, sim):
        store = Store(sim, capacity=4)

        def proc(sim):
            yield store.put(1)
            yield store.put(2)

        sim.process(proc(sim))
        sim.run()
        assert len(store) == 2


class TestResource:
    def test_exclusive_use_serializes(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def worker(sim, name):
            yield res.request()
            log.append((name, "start", sim.now))
            yield sim.timeout(100)
            res.release()
            log.append((name, "end", sim.now))

        sim.process(worker(sim, "w0"))
        sim.process(worker(sim, "w1"))
        sim.run()
        assert log == [
            ("w0", "start", 0),
            ("w0", "end", 100),
            ("w1", "start", 100),
            ("w1", "end", 200),
        ]

    def test_capacity_two_runs_parallel(self, sim):
        res = Resource(sim, capacity=2)
        ends = []

        def worker(sim):
            yield res.request()
            yield sim.timeout(100)
            res.release()
            ends.append(sim.now)

        for _ in range(2):
            sim.process(worker(sim))
        sim.run()
        assert ends == [100, 100]

    def test_release_idle_is_error(self, sim):
        res = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_available_counter(self, sim):
        res = Resource(sim, capacity=3)

        def holder(sim):
            yield res.request()
            yield sim.timeout(10)

        sim.process(holder(sim))
        sim.run()
        assert res.available == 2


class TestCreditPool:
    def test_take_available_is_immediate(self, sim):
        pool = CreditPool(sim, initial=4)

        def proc(sim):
            yield pool.take(3)
            return sim.now

        assert sim.run_process(proc(sim)) == 0
        assert pool.credits == 1

    def test_take_blocks_until_given(self, sim):
        pool = CreditPool(sim, initial=0)

        def taker(sim):
            yield pool.take(2)
            return sim.now

        def giver(sim):
            yield sim.timeout(30)
            pool.give(1)
            yield sim.timeout(30)
            pool.give(1)

        sim.process(giver(sim))
        assert sim.run_process(taker(sim)) == 60

    def test_fifo_prevents_starvation(self, sim):
        # A large request at the head must not be starved by small ones.
        pool = CreditPool(sim, initial=0)
        order = []

        def taker(sim, name, amount):
            yield pool.take(amount)
            order.append(name)

        def giver(sim):
            for _ in range(6):
                yield sim.timeout(10)
                pool.give(1)

        sim.process(taker(sim, "big", 4))
        sim.process(taker(sim, "small", 1))
        sim.process(giver(sim))
        sim.run()
        assert order == ["big", "small"]

    def test_conservation_invariant(self, sim):
        pool = CreditPool(sim, initial=8)

        def churn(sim):
            for _ in range(20):
                yield pool.take(2)
                yield sim.timeout(1)
                pool.give(2)

        sim.process(churn(sim))
        sim.run()
        assert pool.credits == 8

    def test_invalid_amounts_rejected(self, sim):
        pool = CreditPool(sim, initial=1)
        with pytest.raises(SimulationError):
            pool.take(0)
        with pytest.raises(SimulationError):
            pool.give(0)
        with pytest.raises(SimulationError):
            CreditPool(sim, initial=-1)
