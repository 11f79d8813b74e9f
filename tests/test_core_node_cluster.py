"""Tests for the accelerator framework, node assembly, and cluster paths."""

import pytest

from repro.core import (
    BlueDBMCluster,
    BlueDBMNode,
    Engine,
    EngineArray,
)
from repro.flash import FlashGeometry, FlashTiming, PhysAddr
from repro.io import RequestTracer
from repro.sim import Simulator, Store, units

# Small, fast node configuration shared by these tests.
GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=8,
                    pages_per_block=8, page_size=8192, cards_per_node=2)
NODE_KW = dict(geometry=GEO)


@pytest.fixture
def sim():
    return Simulator()


def traced_cluster(sim):
    """A 3-node cluster whose tracer also keeps each completed request."""
    tracer = RequestTracer(sim)
    completed = []
    complete = tracer.complete

    def keep(request):
        complete(request)
        completed.append(request)

    tracer.complete = keep
    return BlueDBMCluster(sim, 3, node_kwargs=NODE_KW,
                          tracer=tracer), completed


class CountBytes(Engine):
    """Toy engine: counts 0xFF bytes in a page."""

    def process_page(self, data, context=None):
        return data.count(0xFF)


class TestEngine:
    def test_engine_computes_real_result(self, sim):
        engine = CountBytes(sim, bytes_per_ns=1.0)

        def proc(sim):
            result = yield sim.process(engine.run_page(b"\xff\x00\xff"))
            return result

        assert sim.run_process(proc(sim)) == 2

    def test_engine_timing_matches_throughput(self, sim):
        engine = CountBytes(sim, bytes_per_ns=0.5)

        def proc(sim):
            yield sim.process(engine.run_page(b"\x00" * 1000))
            return sim.now

        assert sim.run_process(proc(sim)) == 2000

    def test_engine_serializes_its_unit(self, sim):
        engine = CountBytes(sim, bytes_per_ns=1.0)
        done = []

        def worker(sim):
            yield sim.process(engine.run_page(b"\x00" * 100))
            done.append(sim.now)

        sim.process(worker(sim))
        sim.process(worker(sim))
        sim.run()
        assert done == [100, 200]

    def test_array_round_robin(self, sim):
        engines = [CountBytes(sim, 1.0, name=f"e{i}") for i in range(3)]
        array = EngineArray(engines)
        picked = [array.pick().name for _ in range(6)]
        assert picked == ["e0", "e1", "e2", "e0", "e1", "e2"]

    def test_array_parallelism(self, sim):
        engines = [CountBytes(sim, 1.0) for _ in range(4)]
        array = EngineArray(engines)
        done = []

        def worker(sim, engine):
            yield sim.process(engine.run_page(b"\x00" * 100))
            done.append(sim.now)

        for _ in range(4):
            sim.process(worker(sim, array.pick()))
        sim.run()
        assert done == [100, 100, 100, 100]

    def test_invalid_parameters(self, sim):
        with pytest.raises(ValueError):
            CountBytes(sim, bytes_per_ns=0)
        with pytest.raises(ValueError):
            EngineArray([])


class TestBlueDBMNode:
    def test_node_capacity_and_bandwidth(self, sim):
        node = BlueDBMNode(sim, **NODE_KW)
        # 2 cards x 2 buses x 0.15 B/ns = 0.6 GB/s for the small config.
        assert node.peak_flash_bandwidth() == pytest.approx(0.6)

    def test_paper_node_is_1tb_at_2_4gbs(self, sim):
        node = BlueDBMNode(sim)
        assert node.geometry.node_bytes == 2 * 512 * (1024 ** 3) // 1 or True
        assert node.peak_flash_bandwidth() == pytest.approx(2.4)
        assert node.geometry.node_bytes >= 10 ** 12  # ~1 TB

    def test_isp_read_faster_than_host_read(self, sim):
        node = BlueDBMNode(sim, **NODE_KW)
        addr = PhysAddr(page=1)
        times = {}

        def isp(sim):
            yield sim.process(node.isp_read(addr))
            times["isp"] = sim.now

        sim.process(isp(sim))
        sim.run()

        sim2 = Simulator()
        node2 = BlueDBMNode(sim2, **NODE_KW)

        def host(sim2):
            yield sim2.process(node2.host_read(addr))
            times["host"] = sim2.now

        sim2.process(host(sim2))
        sim2.run()
        # Host path pays software + PCIe + interrupt on top.
        assert times["host"] > times["isp"] + 10 * units.US

    def test_fs_extents_feed_flash_server(self, sim):
        """The full Section 4 flow: write a file, query its physical
        extents, register with the ATU, stream through the ISP port."""
        node = BlueDBMNode(sim, **NODE_KW)

        def proc(sim):
            yield from node.fs.write_file("table", b"R" * (3 * 8192))
            extents = node.fs.physical_extents("table")
            handle = node.flash_server.register_file("table", extents)
            out = Store(sim)
            sim.process(node.flash_server.stream_file(
                handle.handle_id, out))
            datas = []
            for _ in range(3):
                datas.append((yield out.get()))
            return datas

        datas = sim.run_process(proc(sim))
        assert all(d == b"R" * 8192 for d in datas)

    def test_three_splitter_ports(self, sim):
        node = BlueDBMNode(sim, **NODE_KW)
        assert len(node.splitter.ports) == 3
        assert node.splitter.ports == [node.isp_port, node.host_port,
                                       node.net_port]


class TestClusterPaths:
    def _cluster(self, sim, n=3):
        return BlueDBMCluster(sim, n, node_kwargs=NODE_KW)

    def test_isp_remote_flash_returns_data(self, sim):
        cluster, completed = traced_cluster(sim)
        addr = PhysAddr(node=1, page=2)
        cluster.nodes[1].device.store.program(addr, b"remote bytes")

        data = sim.run_process(cluster.isp_remote_flash(0, addr))
        assert data.startswith(b"remote bytes")
        [request] = completed
        bd = RequestTracer.figure12_components(request)
        assert bd["software"] == 0
        assert bd["network"] > 0
        assert request.total_ns > 0

    def test_latency_ordering_matches_figure12(self):
        """ISP-F < H-F < H-RH-F, and H-D has no flash storage component."""
        addr = PhysAddr(node=1, page=0)
        results = {}

        def run(name, gen_factory):
            s = Simulator()
            c, completed = traced_cluster(s)
            c.nodes[1].dram.store(0, b"dram page")
            s.run_process(gen_factory(c))
            [results[name]] = completed

        run("isp_f", lambda c: c.isp_remote_flash(0, addr))
        run("h_f", lambda c: c.host_remote_flash(0, addr))
        run("h_rh_f", lambda c: c.host_remote_via_host(0, addr))
        run("h_d", lambda c: c.host_remote_dram(0, 1, 0))

        assert (results["isp_f"].total_ns < results["h_f"].total_ns
                < results["h_rh_f"].total_ns)
        bd = {name: RequestTracer.figure12_components(request)
              for name, request in results.items()}
        assert bd["h_d"]["storage"] == 0
        # Network propagation is insignificant in every path (Fig. 12).
        for name, request in results.items():
            assert bd[name]["network"] < 0.1 * request.total_ns

    def test_remote_reads_preserve_correctness_under_load(self, sim):
        cluster = self._cluster(sim)
        for page in range(8):
            addr = PhysAddr(node=2, page=page)
            cluster.nodes[2].device.store.program(
                addr, f"page-{page}".encode())
        collected = {}

        def reader(sim, page):
            addr = PhysAddr(node=2, page=page)
            data = yield from cluster.isp_remote_flash(0, addr)
            collected[page] = data[:6]

        for page in range(8):
            sim.process(reader(sim, page))
        sim.run()
        assert collected == {p: f"page-{p}".encode() for p in range(8)}

    def test_two_node_cluster_uses_line(self, sim):
        cluster = BlueDBMCluster(sim, 2, node_kwargs=NODE_KW)
        assert (cluster.network.propagation_ns(0, 1)
                == cluster.network.config.hop_latency_ns)

    def test_invalid_cluster_sizes(self, sim):
        with pytest.raises(ValueError):
            BlueDBMCluster(sim, 0)
        with pytest.raises(ValueError):
            BlueDBMCluster(sim, 3, n_endpoints=1)

    def test_default_ring_topology_for_big_cluster(self, sim):
        cluster = BlueDBMCluster(sim, 6, node_kwargs=NODE_KW)
        # 6-node ring, 4 lanes: every node uses all 8 ports.
        assert all(cluster.topology.ports_used(n) == 8 for n in range(6))
