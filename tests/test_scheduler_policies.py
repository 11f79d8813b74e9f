"""Scheduler conformance suite: properties every policy must honor.

``repro.io.scheduler`` now carries six disciplines (fifo, rr, wfq,
token-bucket, priority, edf).  Rather than one bespoke test per policy,
this suite pins down the *contract* and runs every policy against it
with hypothesis-generated workloads:

* **completeness / no starvation** — every pushed entry is eventually
  popped, exactly once (finite queued work always drains);
* **FIFO within a tenant** — when a tenant's entries share one QoS
  identity (fixed priority, non-decreasing deadlines), every policy
  preserves that tenant's arrival order;
* **work conservation** — driven through a :class:`ScheduledResource`,
  no unit sits idle while unthrottled requests are queued: N requests
  of equal hold time finish in exactly ``ceil(N / capacity) * hold``;
* **WFQ convergence** — over a long backlogged run, weighted-fair
  throughput shares match the configured weight ratios within 5%;
* **token-bucket caps** — served bytes never exceed
  ``rate x elapsed + one burst``, and unconfigured tenants stay
  unthrottled (work-conserving).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import POLICIES, QueueEntry, ScheduledResource, make_policy
from repro.sim import Simulator

#: The name of each registered discipline.
POLICY_NAMES = ["fifo", "rr", "wfq", "token-bucket", "priority", "edf"]


def test_policy_names_cover_registry():
    """The conformance suite runs every registered policy, and each
    discipline is registered under one name."""
    assert sorted(POLICIES) == sorted(POLICY_NAMES)
    assert len(set(POLICIES.values())) == len(POLICIES)


# ----------------------------------------------------------------------
# hypothesis workload: per-tenant fixed QoS identity
# ----------------------------------------------------------------------
@st.composite
def _workloads(draw):
    """A push sequence where each tenant has one fixed QoS identity,
    with the clock of its last arrival.

    Fixing priority per tenant and giving deadlines in arrival order
    makes "FIFO within a tenant" a property *every* discipline must
    preserve (priority and EDF tie-break equal keys by sequence).
    """
    n_tenants = draw(st.integers(1, 4))
    tenants = [f"t{i}" for i in range(n_tenants)]
    identity = {
        tenant: (draw(st.integers(0, 3)),          # priority
                 draw(st.one_of(st.none(), st.integers(0, 5))))
        for tenant in tenants
    }
    pushes = []
    clock = 0
    for seq in range(draw(st.integers(1, 40))):
        tenant = draw(st.sampled_from(tenants))
        priority, deadline_base = identity[tenant]
        clock += draw(st.integers(0, 10))
        deadline = (None if deadline_base is None
                    else 1000 + deadline_base + clock)
        cost = draw(st.sampled_from([512, 4096, 8192]))
        pushes.append(QueueEntry(seq, tenant, priority, deadline,
                                 payload=seq, cost=cost))
    return pushes, clock


@pytest.mark.parametrize("name", POLICY_NAMES)
@given(workload=_workloads())
@settings(max_examples=40, deadline=None)
def test_drain_completeness_and_tenant_fifo(name, workload):
    """All entries pop exactly once; per-tenant arrival order holds."""
    pushes, now = workload
    policy = make_policy(name)
    for entry in pushes:
        policy.push(entry)
    assert len(policy) == len(pushes)

    popped = []
    while len(policy):
        ready = policy.next_ready_ns(now)
        assert ready is not None, (
            f"{name}: non-empty queue reports no ready time")
        popped.append(policy.pop(max(now, ready)))
    assert len(policy) == 0
    assert policy.next_ready_ns(now) is None

    # Exactly the pushed entries, each once (no loss, no duplication).
    assert sorted(e.seq for e in popped) == [e.seq for e in pushes]

    # FIFO within each tenant.
    for tenant in {e.tenant for e in pushes}:
        seqs = [e.seq for e in popped if e.tenant == tenant]
        assert seqs == sorted(seqs), (
            f"{name} reordered tenant {tenant!r}: {seqs}")


@pytest.mark.parametrize("name", POLICY_NAMES)
@given(n_requests=st.integers(1, 12), capacity=st.integers(1, 3),
       hold=st.integers(10, 200), n_tenants=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_work_conservation(name, n_requests, capacity, hold, n_tenants):
    """No idle units while unthrottled requests are queued.

    With all requests arriving at t=0 and equal hold times, any
    work-conserving order finishes in exactly
    ``ceil(N / capacity) * hold`` — regardless of which waiter each
    policy picks.  (Token-bucket with *unconfigured* tenants must be
    work-conserving too.)
    """
    sim = Simulator()
    resource = ScheduledResource(sim, capacity=capacity, policy=name,
                                 name=f"wc-{name}")
    done = []

    def user(sim, i):
        yield resource.request(tenant=f"t{i % n_tenants}",
                               priority=i % 2,
                               deadline_ns=1000 + i,
                               cost=8192)
        yield sim.timeout(hold)
        resource.release()
        done.append(i)

    for i in range(n_requests):
        sim.process(user(sim, i))
    sim.run()
    rounds = -(-n_requests // capacity)  # ceil
    assert sim.now == rounds * hold, (
        f"{name} left capacity idle: finished at {sim.now}, "
        f"work-conserving bound is {rounds * hold}")
    assert len(done) == n_requests


# ----------------------------------------------------------------------
# WFQ: weighted shares converge
# ----------------------------------------------------------------------
@given(weights=st.lists(st.sampled_from([1.0, 2.0, 3.0, 4.0, 8.0]),
                        min_size=2, max_size=4))
@settings(max_examples=15, deadline=None)
def test_wfq_shares_converge_to_weights(weights):
    """Backlogged closed-loop tenants get service ~ their weights.

    Each tenant runs enough parallel workers to keep a queue at the
    resource at all times (a fairness policy can only express shares
    while every tenant is backlogged); over a long run the grant
    counts must match the weight ratios within 5% of total service.
    """
    sim = Simulator()
    resource = ScheduledResource(sim, capacity=1, policy="wfq",
                                 name="wfq-shares")
    tenants = [f"t{i}" for i in range(len(weights))]
    for tenant, weight in zip(tenants, weights):
        resource.configure_tenant(tenant, weight=weight)
    rounds = 400
    deadline = rounds * 10
    grants = dict.fromkeys(tenants, 0)

    def loop(sim, tenant):
        while sim.now < deadline:
            yield resource.request(tenant=tenant, cost=8192)
            grants[tenant] += 1
            yield sim.timeout(10)
            resource.release()

    for tenant in tenants:
        for _ in range(8):
            sim.process(loop(sim, tenant))
    sim.run()

    total_grants = sum(grants.values())
    total_weight = sum(weights)
    for tenant, weight in zip(tenants, weights):
        share = grants[tenant] / total_grants
        target = weight / total_weight
        assert abs(share - target) < 0.05, (
            f"wfq share for {tenant} (w={weight}): {share:.3f} vs "
            f"target {target:.3f}")


def test_wfq_cost_awareness_protects_small_requests():
    """Equal weights, unequal request sizes: byte service equalizes.

    This is exactly what slot-count fairness (rr) cannot express — a
    tenant of 8 KB reads vs a tenant of 1 KB ops should get ~8x fewer
    *grants*, not ~equal grants and 8x the bandwidth.
    """
    sim = Simulator()
    resource = ScheduledResource(sim, capacity=1, policy="wfq",
                                 name="wfq-cost")
    deadline = 20_000
    served = {"big": 0, "small": 0}

    def loop(sim, tenant, cost):
        while sim.now < deadline:
            yield resource.request(tenant=tenant, cost=cost)
            served[tenant] += cost
            yield sim.timeout(10)
            resource.release()

    for _ in range(8):
        sim.process(loop(sim, "big", 8192))
        sim.process(loop(sim, "small", 1024))
    sim.run()
    big, small = served["big"], served["small"]
    assert abs(big - small) / max(big, small) < 0.1, (
        f"wfq should equalize byte service: big={big} small={small}")


# ----------------------------------------------------------------------
# token bucket: caps hold; unconfigured tenants unthrottled
# ----------------------------------------------------------------------
@given(rate_mbps=st.sampled_from([50.0, 100.0, 400.0]),
       burst_kb=st.sampled_from([16.0, 64.0, 256.0]))
@settings(max_examples=15, deadline=None)
def test_token_bucket_cap_never_exceeded(rate_mbps, burst_kb):
    """Served bytes <= rate x elapsed + one burst, at every instant.

    The capped tenant is offered far more than its rate; an aggressive
    greedy loop must still be held to the cap.
    """
    sim = Simulator()
    resource = ScheduledResource(sim, capacity=4, policy="token-bucket",
                                 name="tb-cap")
    rate = rate_mbps * 1e6 / 1e9            # bytes per ns
    burst = burst_kb * 1024
    resource.configure_tenant("capped", rate_bytes_per_ns=rate,
                              burst_bytes=burst)
    deadline = 2_000_000
    violations = []
    granted = {"grants": 0, "bytes": 0}

    def loop(sim):
        while sim.now < deadline:
            yield resource.request(tenant="capped", cost=8192)
            granted["grants"] += 1
            served = granted["bytes"] = granted["bytes"] + 8192
            cap = rate * sim.now + burst
            if served > cap + 1e-6:
                violations.append((sim.now, served, cap))
            yield sim.timeout(10)
            resource.release()

    for _ in range(8):
        sim.process(loop(sim))
    sim.run()
    assert not violations, f"cap exceeded: {violations[:3]}"
    assert granted["bytes"] <= rate * sim.now + burst
    # The bucket shapes but does not starve.
    assert granted["grants"] > 0


def test_token_bucket_leaves_unthrottled_tenants_alone():
    """A throttled aggressor must not slow an unconfigured tenant."""
    sim = Simulator()
    resource = ScheduledResource(sim, capacity=1, policy="token-bucket",
                                 name="tb-mixed")
    # ~8 KB per 164 us: far slower than the loop's offered load.
    resource.configure_tenant("capped", rate_bytes_per_ns=0.05,
                              burst_bytes=8192)
    deadline = 500_000
    grants = {"capped": 0, "free": 0}

    def loop(sim, tenant):
        while sim.now < deadline:
            yield resource.request(tenant=tenant, cost=8192)
            grants[tenant] += 1
            yield sim.timeout(10)
            resource.release()

    sim.process(loop(sim, "capped"))
    sim.process(loop(sim, "free"))
    sim.run()
    # The free tenant gets nearly every grant the cap denies the other.
    assert grants["free"] > 30 * grants["capped"]
    # And the capped tenant still progresses (no starvation).
    assert grants["capped"] >= 3


def test_token_bucket_rate_without_burst_still_caps():
    """A rate configured alone gets the default burst, not a free pass.

    Regression: a missing burst used to make the eligibility need
    min(cost, 0) = 0, silently disabling the cap entirely.
    """
    sim = Simulator()
    resource = ScheduledResource(sim, capacity=2, policy="token-bucket",
                                 name="tb-noburst")
    rate = 0.05  # bytes per ns — ~8 KB per 164 us
    resource.configure_tenant("capped", rate_bytes_per_ns=rate)
    deadline = 1_000_000
    served = []

    def loop(sim):
        while sim.now < deadline:
            yield resource.request(tenant="capped", cost=8192)
            served.append(8192)
            yield sim.timeout(10)
            resource.release()

    for _ in range(4):
        sim.process(loop(sim))
    sim.run()
    from repro.io.scheduler import TokenBucketPolicy

    cap = rate * sim.now + TokenBucketPolicy.DEFAULT_BURST_BYTES
    assert sum(served) <= cap
    # The cap binds (offered load was ~30x the rate).
    assert sum(served) < 0.1 * (deadline / 10) * 8192


def test_token_bucket_oversized_request_does_not_deadlock():
    """cost > burst drives the bucket negative instead of hanging."""
    sim = Simulator()
    resource = ScheduledResource(sim, capacity=1, policy="token-bucket",
                                 name="tb-oversize")
    resource.configure_tenant("t", rate_bytes_per_ns=0.01,
                              burst_bytes=1024)
    granted = []

    def user(sim):
        yield resource.request(tenant="t", cost=8192)
        granted.append(sim.now)
        resource.release()
        yield resource.request(tenant="t", cost=8192)
        granted.append(sim.now)
        resource.release()

    sim.process(user(sim))
    sim.run()
    assert len(granted) == 2
    # The first grant passes on the full bucket; the second waits for
    # the negative balance to refill past min(cost, burst).
    assert granted[1] > granted[0]
