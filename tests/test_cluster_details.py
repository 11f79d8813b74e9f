"""Detailed tests for cluster protocol internals and breakdowns."""

import pytest

from repro.core import BlueDBMCluster
from repro.core.cluster import _direct
from repro.flash import FlashGeometry, PhysAddr
from repro.io import RequestTracer
from repro.network import Topology
from repro.sim import Simulator, units

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=8,
                    pages_per_block=8, page_size=2048, cards_per_node=2)
NODE_KW = dict(geometry=GEO)


@pytest.fixture
def sim():
    return Simulator()


class TestClusterConstruction:
    def test_direct_topology_for_two_nodes(self):
        topo = _direct(2)
        assert topo.n_nodes == 2
        assert len(topo.cables) == 1

    def test_single_node_cluster_allowed(self, sim):
        cluster = BlueDBMCluster(sim, 1, node_kwargs=NODE_KW)
        assert cluster.n_nodes == 1

    def test_app_endpoint_reservation(self, sim):
        cluster = BlueDBMCluster(sim, 2, n_endpoints=5, app_endpoints=2,
                                 node_kwargs=NODE_KW)
        assert cluster.rpc.request_ep == 0
        assert cluster.rpc.response_eps == (3, 4)

    def test_app_endpoints_validation(self, sim):
        with pytest.raises(ValueError):
            BlueDBMCluster(sim, 2, n_endpoints=3, app_endpoints=2,
                           node_kwargs=NODE_KW)
        with pytest.raises(ValueError):
            BlueDBMCluster(sim, 2, app_endpoints=-1, node_kwargs=NODE_KW)

    def test_custom_topology_respected(self, sim):
        topo = Topology(3)
        topo.connect(0, 1)
        topo.connect(1, 2)
        cluster = BlueDBMCluster(sim, 3, topology=topo,
                                 node_kwargs=NODE_KW)
        assert (cluster.network.propagation_ns(0, 2)
                == 2 * cluster.network.config.hop_latency_ns)


class TestRemotePathDetails:
    def test_isp_f_breakdown_attribution(self, sim):
        tracer = RequestTracer(sim)
        cluster = BlueDBMCluster(sim, 3, node_kwargs=NODE_KW, tracer=tracer)
        addr = PhysAddr(node=1, page=0)
        completed = []
        complete = tracer.complete

        def keep(request):
            complete(request)
            completed.append(request)

        tracer.complete = keep
        sim.run_process(cluster.isp_remote_flash(0, addr))
        [request] = completed
        bd = RequestTracer.figure12_components(request)
        # Storage component equals the device's first-byte latency.
        timing = cluster.nodes[1].device.cards[0].timing
        assert bd["storage"] == timing.cmd_overhead_ns + timing.t_read_ns
        # Network is request + response propagation over 1 hop each way.
        hop = cluster.network.config.hop_latency_ns
        assert bd["network"] == 2 * hop
        assert bd["transfer"] > 0

    def test_concurrent_mixed_path_requests(self, sim):
        """All four paths in flight simultaneously must not cross wires
        (responses match requests by id)."""
        cluster = BlueDBMCluster(sim, 3, node_kwargs=NODE_KW)
        for page in range(4):
            cluster.nodes[1].device.store.program(
                PhysAddr(node=1, page=page), f"flash{page}".encode())
        cluster.nodes[1].dram.store(0, b"dram0")
        got = {}

        def isp(sim, page):
            data = yield from cluster.isp_remote_flash(
                0, PhysAddr(node=1, page=page))
            got[f"isp{page}"] = data[:6]

        def hf(sim):
            data = yield from cluster.host_remote_flash(
                0, PhysAddr(node=1, page=2))
            got["hf"] = data[:6]

        def hrhf(sim):
            data = yield from cluster.host_remote_via_host(
                0, PhysAddr(node=1, page=3))
            got["hrhf"] = data[:6]

        def hd(sim):
            data = yield from cluster.host_remote_dram(0, 1, 0)
            got["hd"] = data[:5]

        sim.process(isp(sim, 0))
        sim.process(isp(sim, 1))
        sim.process(hf(sim))
        sim.process(hrhf(sim))
        sim.process(hd(sim))
        sim.run()
        assert got == {"isp0": b"flash0", "isp1": b"flash1",
                       "hf": b"flash2", "hrhf": b"flash3",
                       "hd": b"dram0"}

    def test_unknown_request_kind_rejected(self, sim):
        cluster = BlueDBMCluster(sim, 2, node_kwargs=NODE_KW)

        def proc(sim):
            yield from cluster.rpc.call(0, 1, {"kind": "teleport"}, 32)

        sim.process(proc(sim))
        with pytest.raises(ValueError, match="unknown request kind"):
            sim.run()

    def test_unmatched_reply_fails_loudly(self, sim):
        """A reply whose ``req_id`` matches no pending call is a routing
        bug: it must stop the run, not strand its caller forever."""
        cluster = BlueDBMCluster(sim, 2, node_kwargs=NODE_KW)
        response_ep = 1  # the first response endpoint (no app block)

        def proc(sim):
            yield from cluster.network.endpoint(1, response_ep).send(
                0, {"req_id": 99, "data": b""}, 8)

        sim.process(proc(sim))
        with pytest.raises(RuntimeError, match="unknown request 99"):
            sim.run()

    def test_replies_alternate_lanes_by_request_id(self, sim):
        """Request ``i`` is answered on response endpoint
        ``1 + i % 2``: four sequential reads put two pages on each lane
        at the source."""
        cluster = BlueDBMCluster(sim, 2, n_endpoints=3,
                                 node_kwargs=NODE_KW)
        page = GEO.page_size

        def proc(sim):
            for i in range(4):
                yield from cluster.isp_remote_flash(
                    0, PhysAddr(node=1, page=i))

        sim.run_process(proc(sim))
        lanes = [cluster.network.endpoint(0, ep).received_bytes.value
                 for ep in (1, 2)]
        assert lanes == [2 * page, 2 * page]
        assert not cluster.rpc._pending

    def test_h_rh_f_includes_remote_blockio_tax(self, sim):
        """The generic path's calibrated kernel costs actually appear in
        the measured latency."""
        cluster = BlueDBMCluster(sim, 3, node_kwargs=NODE_KW)
        addr = PhysAddr(node=1, page=0)
        sim.run_process(cluster.host_remote_flash(0, addr))
        hf_total = sim.now

        sim2 = Simulator()
        cluster2 = BlueDBMCluster(sim2, 3, node_kwargs=NODE_KW)
        sim2.run_process(cluster2.host_remote_via_host(0, addr))
        hrhf_total = sim2.now
        floor = (cluster.ethernet.RPC_LATENCY_NS
                 + cluster.NIC_WAKEUP_NS + cluster.REMOTE_BLOCKIO_NS)
        assert hrhf_total - hf_total >= floor


class TestAppInbox:
    def test_non_protocol_ethernet_traffic_lands_in_inbox(self, sim):
        cluster = BlueDBMCluster(sim, 2, node_kwargs=NODE_KW)

        def sender(sim):
            yield sim.process(cluster.ethernet.send(
                1, 0, ("app", "payload"), 64))

        def receiver(sim):
            message = yield cluster.app_inbox[0].get()
            return message.payload

        sim.process(sender(sim))
        assert sim.run_process(receiver(sim)) == ("app", "payload")
