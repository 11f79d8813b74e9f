"""Tests for the pluggable QoS scheduling policies (repro.io.scheduler)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import (
    POLICIES,
    EarliestDeadlinePolicy,
    FIFOPolicy,
    QueueEntry,
    RoundRobinPolicy,
    ScheduledResource,
    SchedulerPolicy,
    StrictPriorityPolicy,
    make_policy,
)
from repro.sim import Event, Simulator


def _entry(seq, tenant="t", priority=0, deadline=None):
    return QueueEntry(seq, tenant, priority, deadline, payload=seq)


class TestPolicies:
    def test_fifo_preserves_arrival_order(self):
        policy = FIFOPolicy()
        for seq in range(5):
            policy.push(_entry(seq))
        assert [policy.pop().seq for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_round_robin_rotates_tenants(self):
        policy = RoundRobinPolicy()
        # a floods first; b and c each add one late request.
        for seq in range(4):
            policy.push(_entry(seq, tenant="a"))
        policy.push(_entry(10, tenant="b"))
        policy.push(_entry(11, tenant="c"))
        order = [(policy.pop().tenant) for _ in range(6)]
        # b and c are served within the first rotation, not behind a's
        # whole backlog.
        assert order.index("b") <= 2
        assert order.index("c") <= 2
        assert order.count("a") == 4

    def test_round_robin_fifo_within_tenant(self):
        policy = RoundRobinPolicy()
        for seq in range(3):
            policy.push(_entry(seq, tenant="a"))
        assert [policy.pop().seq for _ in range(3)] == [0, 1, 2]

    def test_strict_priority_orders_by_priority_then_seq(self):
        policy = StrictPriorityPolicy()
        policy.push(_entry(0, priority=0))
        policy.push(_entry(1, priority=5))
        policy.push(_entry(2, priority=5))
        policy.push(_entry(3, priority=1))
        assert [policy.pop().seq for _ in range(4)] == [1, 2, 3, 0]

    def test_edf_orders_by_deadline_none_last(self):
        policy = EarliestDeadlinePolicy()
        policy.push(_entry(0, deadline=None))
        policy.push(_entry(1, deadline=300))
        policy.push(_entry(2, deadline=100))
        policy.push(_entry(3, deadline=200))
        assert [policy.pop().seq for _ in range(4)] == [2, 3, 1, 0]

    def test_len_tracks_depth(self):
        for name in POLICIES:
            policy = make_policy(name)
            assert len(policy) == 0
            policy.push(_entry(0))
            policy.push(_entry(1))
            assert len(policy) == 2
            policy.pop()
            assert len(policy) == 1


class TestMakePolicy:
    def test_known_names(self):
        assert isinstance(make_policy("fifo"), FIFOPolicy)
        assert isinstance(make_policy("rr"), RoundRobinPolicy)
        assert isinstance(make_policy("priority"), StrictPriorityPolicy)
        assert isinstance(make_policy("edf"), EarliestDeadlinePolicy)

    def test_none_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler policy"):
            make_policy(None)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_policy("lottery")

    def test_bad_type_rejected(self):
        with pytest.raises(ValueError):
            make_policy(42)


class TestBindPolicy:
    """Policy instances hold per-resource queues, so resources take a
    policy name and build their own: no instance can be shared."""

    def test_instance_cannot_drive_two_resources(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="unknown scheduler policy"):
            ScheduledResource(sim, 1, policy=RoundRobinPolicy(), name="a")

    def test_names_and_classes_always_yield_fresh_policies(self):
        sim = Simulator()
        a = ScheduledResource(sim, 1, policy="rr")
        b = ScheduledResource(sim, 1, policy="rr")
        assert a.policy is not b.policy

    def test_shared_instance_across_cluster_nodes_rejected_eagerly(self):
        """The corruption scenario: one policy object via node_kwargs
        would mix every node's admission queue — it is rejected while
        the first node is built."""
        from repro.core import BlueDBMCluster
        from repro.flash import FlashGeometry

        geo = FlashGeometry(buses_per_card=2, chips_per_bus=2,
                            blocks_per_chip=4, pages_per_block=8,
                            page_size=64, cards_per_node=1)
        with pytest.raises(ValueError, match="unknown scheduler policy"):
            BlueDBMCluster(Simulator(), 2, node_kwargs=dict(
                geometry=geo, splitter_policy=RoundRobinPolicy(),
                splitter_in_flight=1))


class TestScheduledResource:
    @pytest.fixture
    def sim(self):
        return Simulator()

    def test_grants_up_to_capacity_immediately(self, sim):
        res = ScheduledResource(sim, capacity=2, policy="fifo")
        granted = []

        def taker(sim, tag):
            yield res.request(tenant=tag)
            granted.append((tag, sim.now))

        sim.process(taker(sim, "a"))
        sim.process(taker(sim, "b"))
        sim.run()
        assert [g[0] for g in granted] == ["a", "b"]
        assert res.in_use == 2

    def test_fifo_matches_resource_semantics(self, sim):
        res = ScheduledResource(sim, capacity=1, policy="fifo")
        order = []

        def user(sim, tag, hold):
            yield res.request(tenant=tag)
            order.append(tag)
            yield sim.timeout(hold)
            res.release()

        for tag in ("a", "b", "c"):
            sim.process(user(sim, tag, 10))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_policy_decides_next_grant(self, sim):
        res = ScheduledResource(sim, capacity=1, policy="priority")
        order = []

        def holder(sim):
            yield res.request(tenant="holder")
            yield sim.timeout(100)
            res.release()

        def waiter(sim, tag, priority):
            yield sim.timeout(1)  # enqueue while the holder runs
            yield res.request(tenant=tag, priority=priority)
            order.append(tag)
            res.release()

        sim.process(holder(sim))
        sim.process(waiter(sim, "low", 0))
        sim.process(waiter(sim, "high", 9))
        sim.run()
        assert order == ["high", "low"]

    def test_per_tenant_wait_stats_and_grants(self, sim):
        res = ScheduledResource(sim, capacity=1, policy="fifo")
        waits = {}

        def user(sim, tag):
            asked = sim.now
            yield res.request(tenant=tag)
            waits[tag] = sim.now - asked
            yield sim.timeout(50)
            res.release()

        sim.process(user(sim, "a"))
        sim.process(user(sim, "b"))
        sim.run()
        assert waits == {"a": 0, "b": 50}
        assert res.in_use == 0

    def test_release_when_idle_rejected(self, sim):
        res = ScheduledResource(sim, capacity=1, policy="fifo")
        with pytest.raises(ValueError):
            res.release()

    def test_capacity_validated(self, sim):
        with pytest.raises(ValueError):
            ScheduledResource(sim, capacity=0, policy="fifo")

    def test_queue_depth(self, sim):
        res = ScheduledResource(sim, capacity=1, policy="fifo")

        def holder(sim):
            yield res.request()
            yield sim.timeout(10)
            res.release()

        def waiter(sim):
            yield res.request()
            res.release()

        sim.process(holder(sim))
        sim.process(waiter(sim))
        sim.process(waiter(sim))
        sim.run(until=5)
        assert len(res.policy) == 2
        sim.run()
        assert len(res.policy) == 0


class AlwaysQueued(ScheduledResource):
    """The grant path without the uncontended fast path: every request
    is queued in the policy, then pumped."""

    def request(self, tenant="default", priority=0, deadline_ns=None,
                cost=1):
        event = Event(self.sim)
        self.policy.push(QueueEntry(next(self._seq), tenant, priority,
                                    deadline_ns, event, cost=cost))
        self._pump()
        return event


def _policy_state(policy):
    """The policy's accounting: WFQ virtual time and finish tags, token
    balances and refill clocks (absent attributes read as None)."""
    return {attr: getattr(policy, attr, None)
            for attr in ("_vtime", "_finish", "_tokens", "_refilled_ns")}


class TestUncontendedGrant:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_uncontended_request_is_pre_resolved(self, name):
        sim = Simulator()
        res = ScheduledResource(sim, capacity=1, policy=name)
        grant = res.request(tenant="a", cost=4096)
        assert grant.callbacks is None
        assert res.in_use == 1 and len(res.policy) == 0
        # A contended request queues as before.
        assert res.request(tenant="a").callbacks == []

    _ops = st.lists(st.tuples(
        st.integers(0, 60),                       # arrival
        st.sampled_from(["a", "b", "c"]),         # tenant
        st.sampled_from([0, 512, 4096, 20000]),   # cost
        st.integers(0, 3),                        # priority
        st.one_of(st.none(), st.integers(0, 300)),  # deadline
        st.integers(0, 40)),                      # hold
        min_size=1, max_size=25)

    @pytest.mark.parametrize("name", sorted(POLICIES))
    @given(ops=_ops, capacity=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_fast_path_matches_always_queued(self, name, ops, capacity):
        # Same grant order and times, same scheduling tickets and the
        # same policy accounting as a resource that queues every grant.
        def run(cls):
            sim = Simulator()
            res = cls(sim, capacity=capacity, policy=name)
            res.configure_tenant("a", weight=2.0, rate_bytes_per_ns=50.0,
                                 burst_bytes=8192)
            res.configure_tenant("b", weight=0.5, rate_bytes_per_ns=20.0)
            grants = []

            def user(i, arrival, tenant, cost, priority, deadline, hold):
                yield sim.timeout(arrival)
                yield res.request(tenant=tenant, priority=priority,
                                  deadline_ns=deadline, cost=cost)
                grants.append((i, sim.now))
                yield sim.timeout(hold)
                res.release()

            for i, op in enumerate(ops):
                sim.process(user(i, *op))
            sim.run()
            return grants, sim._eid, _policy_state(res.policy)

        fast, queued = run(ScheduledResource), run(AlwaysQueued)
        assert len(fast[0]) == len(ops)
        assert fast == queued
