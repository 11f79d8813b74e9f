"""Scenario spec round-trips, validation errors, and RunResult JSON.

The contract the declarative API gives its callers:

* ``ScenarioSpec.from_dict(spec.to_dict()) == spec`` for every valid
  spec (property-tested over randomized machines and workloads, and
  through an actual JSON encode/decode);
* invalid specs raise :class:`~repro.api.SpecError` at construction —
  never minutes into a simulation;
* a :class:`~repro.api.RunResult` always serializes to JSON carrying
  the full schema.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    DistributedVolumeSpec,
    RunResult,
    ScenarioSpec,
    Session,
    SpecError,
    TenantSpec,
    TopologySpec,
    VolumeSpec,
    WorkloadSpec,
)
from repro.flash import FlashGeometry, FlashTiming
from repro.host import HostConfig
from repro.network import NetworkConfig, mesh2d

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
geometries = st.builds(
    FlashGeometry,
    buses_per_card=st.integers(1, 8),
    chips_per_bus=st.integers(1, 8),
    blocks_per_chip=st.integers(1, 32),
    pages_per_block=st.integers(1, 64),
    page_size=st.sampled_from([1024, 4096, 8192]),
    cards_per_node=st.integers(1, 2),
)

timings = st.one_of(st.none(), st.builds(
    FlashTiming,
    t_read_ns=st.integers(1_000, 100_000),
    aurora_bytes_per_ns=st.floats(0.1, 4.0, allow_nan=False),
))

tenant_names = st.sampled_from(["isp", "host", "net"])


@st.composite
def _tenants(draw):
    # QoS parameters (port-level *and* admission weight/rate) are only
    # legal on a tenant named after — and accessing — its splitter
    # port, so couple name/access/QoS here.
    name = draw(tenant_names)
    with_qos = draw(st.booleans())
    access = name if with_qos else draw(
        st.sampled_from(["isp", "host", "net"]))
    qos = {}
    if with_qos:
        rate = draw(st.one_of(st.none(), st.floats(1.0, 2000.0,
                                                   allow_nan=False)))
        qos = dict(
            max_in_flight=draw(st.one_of(st.none(), st.integers(1, 64))),
            priority=draw(st.one_of(st.none(), st.integers(0, 3))),
            deadline_ns=draw(st.one_of(st.none(),
                                       st.integers(1, 10_000_000))),
            weight=draw(st.floats(0.1, 10.0, allow_nan=False)),
            rate_mbps=rate,
            burst_kb=(None if rate is None else
                      draw(st.one_of(st.none(),
                                     st.floats(1.0, 1024.0,
                                               allow_nan=False)))),
        )
    return TenantSpec(
        name=name, access=access,
        workers=draw(st.integers(1, 8)),
        addr_space=draw(st.one_of(st.none(), st.integers(1, 4096))),
        software_path=draw(st.booleans()),
        pattern=draw(st.sampled_from(["random", "sequential"])),
        rng=draw(st.sampled_from(["per_worker", "shared"])),
        seed_base=draw(st.integers(0, 1000)),
        **qos)


tenants = _tenants()

workloads = st.one_of(st.none(), st.builds(
    WorkloadSpec,
    duration_ns=st.integers(1, 10_000_000),
    tenants=st.lists(tenants, min_size=1, max_size=3,
                     unique_by=lambda t: t.name).map(tuple),
    seed=st.integers(0, 2**16),
    drain=st.booleans(),
    queue_depth=st.integers(1, 64),
))

topologies = st.one_of(
    st.builds(TopologySpec, kind=st.just("auto")),
    st.builds(TopologySpec, kind=st.just("fully_connected")),
    st.builds(TopologySpec, kind=st.just("custom"),
              links=st.lists(
                  st.tuples(st.integers(0, 1), st.integers(0, 1)),
                  min_size=1, max_size=4).map(tuple)),
)

scenarios = st.builds(
    ScenarioSpec,
    name=st.sampled_from(["s", "bench", "qos-test"]),
    n_nodes=st.integers(1, 4),
    geometry=geometries,
    timing=timings,
    host=st.one_of(st.none(), st.builds(HostConfig)),
    network=st.one_of(st.none(), st.builds(NetworkConfig)),
    topology=topologies,
    n_endpoints=st.integers(2, 6),
    isp_queue_depth=st.integers(1, 32),
    # Tenant weight/rate and splitter_in_flight need an admission
    # policy (see test_admission_qos_without_policy_rejected).
    splitter_policy=st.sampled_from(["fifo", "rr", "priority", "edf"]),
    splitter_in_flight=st.one_of(st.none(), st.integers(1, 64)),
    coalesce=st.booleans(),
    coalesce_max_pages=st.integers(2, 16),
    workload=workloads,
)


# ----------------------------------------------------------------------
# round-trips
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(scenarios)
def test_scenario_round_trip(spec):
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


@settings(max_examples=60, deadline=None)
@given(scenarios)
def test_scenario_json_round_trip(spec):
    encoded = json.dumps(spec.to_dict())
    assert ScenarioSpec.from_dict(json.loads(encoded)) == spec


@settings(max_examples=40, deadline=None)
@given(tenants)
def test_tenant_round_trip(tenant):
    assert TenantSpec.from_dict(tenant.to_dict()) == tenant


def test_round_trip_preserves_nested_configs():
    spec = ScenarioSpec(
        name="nested", n_nodes=3,
        timing=FlashTiming(aurora_bytes_per_ns=0.3),
        host=HostConfig(n_cores=8),
        network=NetworkConfig(max_packet_payload=1024),
        topology=TopologySpec(kind="custom", links=((0, 1), (0, 2))),
        workload=WorkloadSpec(duration_ns=1000, tenants=(
            TenantSpec("isp", access="isp", priority=2),)))
    clone = ScenarioSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.timing.aurora_bytes_per_ns == 0.3
    assert clone.host.n_cores == 8
    assert clone.network.max_packet_payload == 1024
    assert clone.topology.links == ((0, 1), (0, 2))


# ----------------------------------------------------------------------
# validation at construction
# ----------------------------------------------------------------------
def test_zero_node_cluster_rejected():
    with pytest.raises(SpecError):
        ScenarioSpec(n_nodes=0)


def test_bad_topology_name_rejected():
    with pytest.raises(SpecError):
        TopologySpec(kind="hypercube")


def test_non_positive_tenant_weight_rejected():
    for weight in (0.0, -1.0):
        with pytest.raises(SpecError):
            TenantSpec("isp", weight=weight)


def test_zero_worker_tenant_rejected():
    with pytest.raises(SpecError):
        TenantSpec("isp", workers=0)


def test_unknown_access_kind_rejected():
    # GC traffic comes from a volume's FTL (the volume-gc port), never
    # from a tenant, so "gc" is not an access kind either.
    for access in ("teleport", "gc"):
        with pytest.raises(SpecError, match="unknown access kind"):
            TenantSpec("isp", access=access)


def test_unknown_splitter_policy_rejected():
    with pytest.raises(SpecError):
        ScenarioSpec(splitter_policy="lottery")


def test_qos_on_non_port_tenant_rejected():
    with pytest.raises(SpecError):
        TenantSpec("bulk", access="isp", priority=1)


def test_qos_name_access_mismatch_rejected():
    # priority would program the isp port while traffic used host.
    with pytest.raises(SpecError):
        TenantSpec("isp", access="host", priority=3)


def test_remote_policy_qos_requires_tracing():
    tenants = (TenantSpec("r1", access="remote_isp", node=1, target=0,
                          weight=2.0),)
    with pytest.raises(SpecError):
        ScenarioSpec(n_nodes=2, trace_sample=2, splitter_policy="wfq",
                     workload=WorkloadSpec(duration_ns=1000,
                                           tenants=tenants))
    # With every request traced (the default) the same mix is fine.
    ScenarioSpec(n_nodes=2, splitter_policy="wfq", workload=WorkloadSpec(
        duration_ns=1000, tenants=tenants))


def test_rate_without_burst_gets_default_burst():
    tenant = TenantSpec("net", access="net", rate_mbps=100.0)
    assert tenant.burst_kb == 64.0
    with pytest.raises(SpecError):
        TenantSpec("net", access="net", burst_kb=64.0)  # burst alone


def test_policy_qos_label_conflict_rejected():
    with pytest.raises(SpecError, match="admission label"):
        ScenarioSpec(n_nodes=3, splitter_policy="wfq", workload=WorkloadSpec(
            duration_ns=1000, tenants=(
                TenantSpec("a", access="remote_isp", node=1, target=0,
                           weight=2.0),
                TenantSpec("b", access="remote_isp", node=1, target=0,
                           weight=3.0),)))


@pytest.mark.parametrize("fields, named", [
    (dict(splitter_in_flight=8), "splitter_in_flight"),
    (dict(volume=VolumeSpec(gc_weight=0.5)), "volume.gc_weight"),
    (dict(volume=VolumeSpec(gc_rate_mbps=200.0)), "volume.gc_rate_mbps"),
    (dict(volume=VolumeSpec(gc_rate_mbps=200.0, gc_burst_kb=32.0)),
     "volume.gc_burst_kb"),
    (dict(n_nodes=2, dvol=DistributedVolumeSpec(
        shards=2, volume=VolumeSpec(gc_weight=2.0))),
     "dvol.volume.gc_weight"),
    (dict(workload=WorkloadSpec(duration_ns=1000, tenants=(
        TenantSpec("host", access="host", weight=2.0),))),
     "tenant 'host'"),
    (dict(workload=WorkloadSpec(duration_ns=1000, tenants=(
        TenantSpec("net", access="net", rate_mbps=100.0),))),
     "tenant 'net'"),
])
def test_admission_qos_without_policy_rejected(fields, named):
    # Without a splitter policy there is no admission stage, so these
    # parameters would silently never apply.
    with pytest.raises(SpecError, match=re.escape(named)):
        ScenarioSpec(**fields)
    # The same spec under a policy is valid.
    ScenarioSpec(splitter_policy="wfq", **fields)


def test_sized_topology_must_cover_the_cluster():
    # A cable to a node outside the cluster would leave remote accesses
    # dying mid-simulation on a node with no network attachment.
    spec = TopologySpec(kind="custom", links=((0, 1), (1, 4)))
    with pytest.raises(SpecError):
        spec.build(4)


def test_from_dict_omitted_geometry_matches_constructor_default():
    assert ScenarioSpec.from_dict({"name": "x"}) == ScenarioSpec(name="x")


def test_remote_tenant_needs_target_and_nodes():
    with pytest.raises(SpecError):
        TenantSpec("isp", access="remote_isp")  # no target
    with pytest.raises(SpecError):
        ScenarioSpec(n_nodes=1, workload=WorkloadSpec(
            duration_ns=1000, tenants=(
                TenantSpec("isp", access="remote_isp", target=0),)))


def test_tenant_outside_cluster_rejected():
    with pytest.raises(SpecError):
        ScenarioSpec(n_nodes=2, workload=WorkloadSpec(
            duration_ns=1000, tenants=(
                TenantSpec("isp", access="isp", node=5),)))


def test_duplicate_tenant_names_rejected():
    with pytest.raises(SpecError):
        WorkloadSpec(duration_ns=1000, tenants=(
            TenantSpec("isp", access="isp"),
            TenantSpec("isp", access="host")))


def test_empty_workload_rejected():
    with pytest.raises(SpecError):
        WorkloadSpec(duration_ns=1000, tenants=())


def test_custom_topology_needs_links():
    with pytest.raises(SpecError):
        TopologySpec(kind="custom")


def test_inapplicable_topology_parameters_rejected():
    # A cable list only a custom topology wires; silently ignoring it
    # would misreport every bandwidth measured on the default wiring.
    with pytest.raises(SpecError):
        TopologySpec(kind="auto", links=((0, 1),))
    with pytest.raises(SpecError):
        TopologySpec(kind="fully_connected", links=((0, 1),))


def test_mesh2d_rows_cols_orientation():
    # Two rows of three: a row holds three consecutively-numbered nodes.
    topo = mesh2d(3, 2)
    cabled = {frozenset((c.node_a, c.node_b)) for c in topo.cables}
    assert frozenset((0, 1)) in cabled and frozenset((1, 2)) in cabled
    assert frozenset((0, 3)) in cabled  # column neighbour one row down
    assert frozenset((2, 3)) not in cabled


def test_workload_without_duration_rejected():
    with pytest.raises(SpecError):
        WorkloadSpec(duration_ns=0,
                     tenants=(TenantSpec("isp", access="isp"),))


# ----------------------------------------------------------------------
# batching / async submission knobs
# ----------------------------------------------------------------------
def test_non_positive_queue_depth_rejected():
    with pytest.raises(SpecError, match="queue_depth"):
        WorkloadSpec(duration_ns=1000, queue_depth=0,
                     tenants=(TenantSpec("isp", access="isp"),))


def test_unknown_pattern_rejected():
    with pytest.raises(SpecError, match="pattern"):
        TenantSpec("isp", access="isp", pattern="zipfian")


def test_coalescing_needs_room_to_merge():
    with pytest.raises(SpecError, match="coalesce_max_pages"):
        ScenarioSpec(coalesce=True, coalesce_max_pages=1)
    with pytest.raises(SpecError, match="coalesce_max_pages"):
        ScenarioSpec(coalesce_max_pages=0)
    # max_pages 1 without coalescing is legal (the knob is inert).
    ScenarioSpec(coalesce_max_pages=1)


def test_only_poisson_arrivals_accepted_and_round_tripped():
    tenants = (TenantSpec("isp", access="isp"),)
    for process in ("onoff", "diurnal"):
        with pytest.raises(SpecError, match="arrival process"):
            WorkloadSpec(duration_ns=1000, tenants=tenants,
                         arrival=process, arrival_rate_rps=1e5)
    workload = WorkloadSpec(duration_ns=1000, tenants=tenants,
                            arrival="poisson", arrival_rate_rps=1e5)
    data = json.loads(json.dumps(workload.to_dict()))
    assert data["arrival"] == "poisson"
    assert data["arrival_rate_rps"] == 1e5
    assert WorkloadSpec.from_dict(data) == workload


# ----------------------------------------------------------------------
# RunResult JSON schema
# ----------------------------------------------------------------------
def test_run_result_json_schema_smoke():
    spec = ScenarioSpec(
        name="schema-smoke",
        geometry=FlashGeometry(buses_per_card=2, chips_per_bus=2,
                               blocks_per_chip=4, pages_per_block=8,
                               page_size=1024, cards_per_node=1),
        workload=WorkloadSpec(duration_ns=500_000, tenants=(
            TenantSpec("isp", access="isp", workers=2),)))
    result = Session(spec).run()
    result.add_table("smoke", "a table", ["a", "b"], [[1, 2.5]])

    payload = json.loads(result.to_json())
    for key in ("experiment", "title", "tables", "series", "metrics",
                "tenant_stats", "stage_stats", "elapsed_ns", "spec", "meta"):
        assert key in payload, f"missing {key} in serialized RunResult"
    assert payload["experiment"] == "schema-smoke"
    assert payload["spec"]["workload"]["tenants"][0]["name"] == "isp"
    assert payload["metrics"]["completions"]["isp"] > 0
    assert payload["tables"][-1]["columns"] == ["a", "b"]
    # The dict form is replayable back into a spec and a RunResult.
    assert ScenarioSpec.from_dict(payload["spec"]) == spec
    clone = RunResult.from_dict(payload)
    assert clone.experiment == result.experiment
    assert clone.table("smoke").rows == [[1, 2.5]]
