"""Distributed volumes end to end: routing, coalescing, accounting.

Small 2- and 3-node scenarios drive :mod:`repro.dvol` through the
declarative API: remote reads/writes cross the integrated network and
come back correct, traces show the ``net`` hops alongside
``queue``/``device``, the remote coalescer merges stripe-adjacent
runs, and the fabric's payload-byte ledger reconciles exactly — even
across multi-hop forwarded routes.
"""

import dataclasses

import pytest

from repro.api import (
    DistributedVolumeSpec,
    ScenarioSpec,
    Session,
    SpecError,
    TenantSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.network import NetworkConfig

PAGE = 8192


def dvol_spec(n_nodes=2, shards=2, tenant_node=0, placement="striped",
              remote_coalesce=False, fill=0.0, links=None,
              duration_ns=200_000, queue_depth=4, pattern="sequential",
              write_fraction=0.0, drain=False):
    topology = (TopologySpec(kind="custom", links=links) if links
                else TopologySpec())
    return ScenarioSpec(
        name="dvol-test", n_nodes=n_nodes, topology=topology,
        network=NetworkConfig(max_packet_payload=2048),
        dvol=DistributedVolumeSpec(
            shards=shards, placement=placement, stripe_chunk_pages=8,
            remote_coalesce=remote_coalesce,
            remote_coalesce_max_pages=8, remote_in_flight=4,
            volume={"fill": fill, "allocation": "sequential"}),
        workload=WorkloadSpec(
            duration_ns=duration_ns, queue_depth=queue_depth,
            drain=drain,
            tenants=(TenantSpec("t0", access="dvol", node=tenant_node,
                                pattern=pattern, addr_space=2048,
                                write_fraction=write_fraction,
                                software_path=False, workers=2),)))


# ----------------------------------------------------------------------
# flows
# ----------------------------------------------------------------------
def test_remote_read_crosses_network_and_returns_erased_pattern():
    # Unprefilled volume: every read — local or remote — returns the
    # erased pattern, so a wrong routing/shard mapping cannot hide.
    session = Session(dvol_spec())
    dvol = session.dvol
    iface = session._ifaces["t0"]
    datas = []

    def driver(sim):
        for lpn in (0, 8, 16, 24):  # chunks alternate node 0 / node 1
            data = yield from dvol.read_lpn(0, iface, lpn,
                                            software_path=False)
            datas.append(data)

    session.sim.run_process(driver(session.sim))
    assert all(d == b"\xff" * PAGE for d in datas)
    routers = dvol.stats()["routers"]
    assert routers[0]["remote_reads"] == 2      # lpns 8, 24 live on node 1
    assert routers[1]["served_reads"] == 2


def test_remote_write_read_roundtrip_under_tenant_identity():
    session = Session(dvol_spec())
    dvol = session.dvol
    iface = session._ifaces["t0"]
    payload = bytes([7]) * PAGE
    out = []

    def driver(sim):
        yield from dvol.write_lpn(0, iface, 9, payload,
                                  software_path=False)
        data = yield from dvol.read_lpn(0, iface, 9,
                                        software_path=False)
        out.append(data)

    session.sim.run_process(driver(session.sim))
    assert out == [payload]
    # LPN 9 lives in node 1's chunk: the write and the read both
    # crossed the network and were served by node 1's shard.
    stats = dvol.stats()["routers"][1]
    assert stats["served_writes"] == 1
    assert stats["served_reads"] == 1
    # The shard accounted the program to the *source* tenant, not to
    # the service port.
    assert dvol.shards[1].stats()["user_writes"]["t0"] == 1


def test_remote_ops_trace_net_alongside_queue_and_device():
    session = Session(dvol_spec(remote_coalesce=True, fill=1.0))
    result = None

    def driver(sim):
        dvol = session.dvol
        iface = session._ifaces["t0"]
        yield from dvol.read_lpn(0, iface, 8, software_path=False)

    session.sim.run_process(driver(session.sim))
    result = session.result()
    stages = result.stage_stats
    # The remote read decomposes into network serialization hops plus
    # the ordinary storage stages at the destination.
    for stage in ("net", "queue", "device", "pcie", "interrupt"):
        assert stage in stages, f"missing stage {stage!r}"
    # Both directions charged: request-command hop + page-response hop.
    assert stages["net"]["mean_ns"] > 0


def test_remote_coalescer_merges_sequential_remote_runs():
    spec = dvol_spec(remote_coalesce=True, fill=1.0,
                     links=((0, 1), (0, 1)), duration_ns=400_000,
                     queue_depth=16)
    result = Session(spec).run()
    remote = result.metrics["dvol"]["remote_coalescing"]
    pages = sum(s["pages"] for s in remote.values())
    commands = sum(s["commands"] for s in remote.values())
    assert commands > 0
    assert pages / commands > 1.5


def test_hashed_placement_serves_the_same_scan():
    striped = Session(dvol_spec(fill=1.0)).run()
    hashed = Session(dvol_spec(fill=1.0, placement="hashed")).run()
    for run in (striped, hashed):
        assert run.metrics["completions"]["t0"] > 0
    # Both placements expose the same logical capacity.
    assert (striped.metrics["dvol"]["logical_pages"]
            == hashed.metrics["dvol"]["logical_pages"])


def test_remote_isp_and_dvol_share_one_fabric():
    """The cluster's remote ISP path and the distributed volume — both
    owners of the request/response protocol — run concurrently on one
    fabric, each through its own channels, and every call is answered."""
    spec = dvol_spec(drain=True, write_fraction=0.2)
    remote = TenantSpec("r1", access="remote_isp", node=1, target=0,
                        addr_space=256, workers=2)
    spec = dataclasses.replace(spec, workload=dataclasses.replace(
        spec.workload, tenants=spec.workload.tenants + (remote,)))
    session = Session(spec)
    result = session.run()
    assert result.metrics["completions"]["t0"] > 0
    assert result.metrics["completions"]["r1"] > 0
    channels = [session.cluster.rpc, *session.dvol.channels.values()]
    assert all(not channel._pending for channel in channels)
    routers = result.metrics["dvol"]["routers"]
    assert routers[0]["remote_reads"] == routers[1]["served_reads"] > 0
    assert routers[0]["remote_writes"] == routers[1]["served_writes"] > 0


def test_single_node_dvol_is_all_local():
    result = Session(dvol_spec(n_nodes=1, shards=1, fill=1.0)).run()
    assert result.metrics["completions"]["t0"] > 0
    assert "routers" not in result.metrics["dvol"]


# ----------------------------------------------------------------------
# byte-accounting reconciliation (multi-hop forwarding)
# ----------------------------------------------------------------------
def test_byte_ledger_reconciles_across_forwarded_hops():
    # A 3-node line with both shards on nodes 0-1 and the tenant on
    # node 2: every request to shard 0 (and its page-sized response)
    # crosses node 1, which must charge its links without inflating
    # the endpoint totals.
    spec = dvol_spec(n_nodes=3, tenant_node=2,
                     links=((0, 1), (1, 2)), drain=True)
    session = Session(spec)
    session.run()
    ledger = session.cluster.network.byte_ledger()
    # Traffic flowed, and some of it was relayed through node 1.
    assert ledger["endpoint_sent_bytes"] > 0
    assert ledger["forwarded_bytes"] > 0
    # Endpoints count each payload once per end; the wire counts every
    # hop, the relays being exactly the surplus.
    assert (ledger["endpoint_sent_bytes"]
            == ledger["endpoint_received_bytes"])
    assert (ledger["link_payload_bytes"] - ledger["forwarded_bytes"]
            == ledger["endpoint_sent_bytes"])


def test_byte_ledger_reconciles_without_forwarding():
    # Adjacent nodes (2-node direct link): no relays, wire == endpoints.
    spec = dvol_spec(drain=True)
    session = Session(spec)
    session.run()
    ledger = session.cluster.network.byte_ledger()
    assert ledger["endpoint_sent_bytes"] > 0
    assert ledger["forwarded_bytes"] == 0
    assert (ledger["endpoint_sent_bytes"]
            == ledger["endpoint_received_bytes"])
    assert (ledger["link_payload_bytes"]
            == ledger["endpoint_sent_bytes"])


# ----------------------------------------------------------------------
# spec validation and serialization
# ----------------------------------------------------------------------
def test_dvol_tenant_without_dvol_spec_rejected():
    with pytest.raises(SpecError):
        ScenarioSpec(
            n_nodes=2,
            workload=WorkloadSpec(
                duration_ns=1000,
                tenants=(TenantSpec("t0", access="dvol"),)))


def test_dvol_more_shards_than_nodes_rejected():
    with pytest.raises(SpecError):
        dataclasses.replace(dvol_spec(), dvol=DistributedVolumeSpec(
            shards=3))


def test_dvol_bad_placement_rejected():
    with pytest.raises(SpecError):
        DistributedVolumeSpec(placement="round-robin")


def test_dvol_remote_coalesce_needs_two_pages():
    with pytest.raises(SpecError):
        DistributedVolumeSpec(remote_coalesce=True,
                              remote_coalesce_max_pages=1)


def test_dvol_tenant_cannot_take_fixed_port_name():
    with pytest.raises(SpecError):
        TenantSpec("host", access="dvol")


def test_dvol_windows_overflow_rejected():
    with pytest.raises(SpecError):
        spec = dvol_spec()
        dataclasses.replace(
            spec, workload=dataclasses.replace(
                spec.workload,
                tenants=(TenantSpec("t0", access="dvol",
                                    addr_space=10_000_000),)))


def test_dvol_spec_round_trips_through_dicts():
    spec = dvol_spec(remote_coalesce=True, fill=0.5,
                     placement="hashed", links=((0, 1), (0, 1)))
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
