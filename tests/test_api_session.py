"""The Session facade: machine assembly and workload execution."""

import pytest

from repro.api import (
    ScenarioSpec,
    Session,
    SpecError,
    TenantSpec,
    TopologySpec,
    VolumeSpec,
    WorkloadSpec,
)
from repro.core import BlueDBMCluster
from repro.flash import FlashGeometry

SMALL_GEO = FlashGeometry(buses_per_card=4, chips_per_bus=4,
                          blocks_per_chip=4, pages_per_block=8,
                          page_size=2048, cards_per_node=1)


def test_single_node_session_has_no_cluster():
    session = Session(ScenarioSpec(name="one", geometry=SMALL_GEO))
    assert session.cluster is None
    assert len(session.nodes) == 1
    assert session.node.geometry == SMALL_GEO
    assert session.tracer is not None


def test_multi_node_session_builds_cluster():
    session = Session(ScenarioSpec(name="three", n_nodes=3,
                                   geometry=SMALL_GEO))
    assert isinstance(session.cluster, BlueDBMCluster)
    assert len(session.nodes) == 3
    # The cluster and every node share the session tracer.
    assert session.cluster.tracer is session.tracer
    assert all(n.tracer is session.tracer for n in session.nodes)


def test_custom_topology_is_materialized():
    spec = ScenarioSpec(
        name="lanes", n_nodes=2, geometry=SMALL_GEO,
        topology=TopologySpec(kind="custom", links=((0, 1), (0, 1))))
    session = Session(spec)
    assert len(session.cluster.topology.cables) == 2


def test_custom_topology_link_out_of_range():
    spec = ScenarioSpec(
        name="bad-links", n_nodes=2, geometry=SMALL_GEO,
        topology=TopologySpec(kind="custom", links=((0, 7),)))
    with pytest.raises(SpecError):
        Session(spec)


def test_run_without_workload_raises():
    session = Session(ScenarioSpec(name="idle", geometry=SMALL_GEO))
    with pytest.raises(SpecError):
        session.run()


def test_workload_run_counts_and_traces():
    spec = ScenarioSpec(
        name="mix", geometry=SMALL_GEO,
        workload=WorkloadSpec(duration_ns=2_000_000, tenants=(
            TenantSpec("isp", access="isp", workers=2),
            TenantSpec("host", access="host", workers=1),
        )))
    result = Session(spec).run()
    completions = result.metrics["completions"]
    assert completions["isp"] > 0
    assert completions["host"] > 0
    # Tracer tenant stats agree with the driver's counters (both count
    # completed reads on the splitter's ports).
    assert result.tenant_stats["isp"]["completed"] == completions["isp"]
    assert result.tenant_stats["host"]["completed"] == \
        completions["host"]
    assert "storage" in result.stage_stats
    assert result.metrics["total_bandwidth_gbs"] > 0
    assert result.spec == spec.to_dict()


def test_port_qos_reaches_the_splitter():
    spec = ScenarioSpec(
        name="qos-wiring", geometry=SMALL_GEO,
        splitter_policy="priority", splitter_in_flight=4,
        workload=WorkloadSpec(duration_ns=100_000, tenants=(
            TenantSpec("isp", access="isp", priority=2,
                       max_in_flight=2, deadline_ns=1_000_000),
            TenantSpec("net", access="net", priority=0),
        )))
    session = Session(spec)
    assert session.node.isp_port.priority == 2
    assert session.node.isp_port.max_in_flight == 2
    assert session.node.net_port.priority == 0


def test_tenant_stats_keyed_by_spec_names():
    # A tenant whose name differs from its access path still gets its
    # tracer stats reported under the spec name (1:1 label mapping).
    spec = ScenarioSpec(
        name="renamed", geometry=SMALL_GEO,
        workload=WorkloadSpec(duration_ns=1_000_000, tenants=(
            TenantSpec("bulk", access="isp", workers=2),)))
    result = Session(spec).run()
    assert "bulk" in result.tenant_stats
    assert result.tenant_stats["bulk"]["completed"] == \
        result.metrics["completions"]["bulk"]


def test_async_worker_sustains_depth_and_beats_synchronous():
    def run(depth):
        spec = ScenarioSpec(
            name=f"qd{depth}", geometry=SMALL_GEO,
            workload=WorkloadSpec(duration_ns=2_000_000,
                                  queue_depth=depth, tenants=(
                TenantSpec("isp", access="isp", workers=1),)))
        return Session(spec).run()

    shallow = run(1)
    deep = run(8)
    assert (deep.metrics["completions"]["isp"]
            > 3 * shallow.metrics["completions"]["isp"]), (
        "queue depth 8 must complete several times the synchronous loop")


@pytest.mark.parametrize("access", ["isp", "host", "volume"])
def test_async_drain_counters_match_tracer(access):
    # Completions are counted from the completion events, so requests
    # still in flight at the window edge are counted once a draining
    # run finishes them — the counter and the tracer must agree.
    spec = ScenarioSpec(
        name="drain-count", geometry=SMALL_GEO,
        volume=VolumeSpec(fill=1.0) if access == "volume" else None,
        workload=WorkloadSpec(duration_ns=1_500_000, queue_depth=8,
                              drain=True, tenants=(
            TenantSpec(access, access=access, workers=2),)))
    result = Session(spec).run()
    assert (result.metrics["completions"][access]
            == result.tenant_stats[access]["completed"])


def _peak_outstanding(requests) -> int:
    """Most requests in flight at once; a completion at time t frees
    its slot before an issue at the same t takes one."""
    edges = sorted([(r.issued_ns, 1) for r in requests]
                   + [(r.completed_ns, -1) for r in requests])
    peak = outstanding = 0
    for _, step in edges:
        outstanding += step
        peak = max(peak, outstanding)
    return peak


def test_async_window_keeps_exactly_queue_depth_outstanding():
    # Host tenants refill per completion and volume tenants refill in
    # coalescible chunks, but both hold the window at queue_depth: never
    # more in flight, and the whole window is reached.
    spec = ScenarioSpec(
        name="window", geometry=SMALL_GEO, volume=VolumeSpec(fill=1.0),
        workload=WorkloadSpec(duration_ns=500_000, queue_depth=3,
                              drain=True, tenants=(
            TenantSpec("host", access="host", workers=1),
            TenantSpec("vol", access="volume", workers=1))))
    session = Session(spec)
    completed = []
    complete = session.tracer.complete

    def record(request):
        # The tracer keeps only aggregates; keep the requests here.
        complete(request)
        if request:
            completed.append(request)

    session.tracer.complete = record
    session.run()
    for name in ("host", "vol"):
        requests = [r for r in completed if r.tenant == name]
        assert len(requests) > 3
        assert _peak_outstanding(requests) == 3, name


def test_deterministic_reruns():
    spec = ScenarioSpec(
        name="det", geometry=SMALL_GEO,
        workload=WorkloadSpec(duration_ns=1_000_000, tenants=(
            TenantSpec("isp", access="isp", workers=3, rng="shared"),),
            seed=99, drain=True))
    first = Session(spec).run()
    second = Session(spec).run()
    assert first.metrics["completions"] == second.metrics["completions"]
    assert first.elapsed_ns == second.elapsed_ns
