"""Cross-module integration tests: failure injection, accelerator
sharing, multi-node scaling, and end-to-end flows the unit tests can't
see."""

import pytest

from repro.apps import (
    NearestNeighborISP,
    LSHIndex,
    StringSearchISP,
    make_item_corpus,
    make_text_corpus,
)
from repro.core import BlueDBMCluster, BlueDBMNode, EngineArray
from repro.flash import ErrorModel, FlashGeometry, PhysAddr, WearTracker
from repro.flash.device import StorageDevice
from repro.fs import RFS
from repro.isp import HammingEngine
from repro.sim import Simulator

GEO = FlashGeometry(buses_per_card=4, chips_per_bus=4, blocks_per_chip=16,
                    pages_per_block=16, page_size=2048, cards_per_node=2)


class TestErrorInjectionEndToEnd:
    def test_search_survives_bit_errors(self, ecc_decodes):
        """ECC makes injected single-bit flips invisible to applications:
        string search over an error-prone device still finds exactly the
        oracle's matches."""
        sim = Simulator()
        node = BlueDBMNode(
            sim, geometry=GEO, isp_queue_depth=4,
            errors=ErrorModel(page_error_prob=0.5,
                              double_error_fraction=0.0))
        app = StringSearchISP(node, engines_per_bus=2)
        corpus, expected = make_text_corpus(64 * 2048, b"RESILIENT", 6,
                                            seed=13)
        def proc(sim):
            yield from app.setup(corpus)
            return (yield from app.run(b"RESILIENT"))

        matches, _, _ = sim.run_process(proc(sim))
        assert matches == expected
        # Errors really happened and really got corrected.
        assert sum(ecc_decodes) > 10

    def test_fs_roundtrip_with_errors(self):
        sim = Simulator()
        device = StorageDevice(
            sim, geometry=GEO,
            errors=ErrorModel(page_error_prob=0.3,
                              double_error_fraction=0.0))
        fs = RFS(sim, device)
        payload = bytes(range(256)) * 24  # 3 pages

        def proc(sim):
            yield from fs.write_file("f", payload)
            pages = []
            for lpn in fs.stat("f").lpns:
                pages.append((yield from fs.core.read(
                    lpn, fs.device.read_page)))
            return b"".join(pages)

        assert sim.run_process(proc(sim)) == payload

    def test_wearout_rotates_to_fresh_blocks(self):
        """Under heavy overwrite the wear leveler spreads erases: no
        block should absorb a grossly disproportionate share."""
        sim = Simulator()
        device = StorageDevice(sim, geometry=GEO,
                               endurance=10_000)
        fs = RFS(sim, device)

        def churn(sim):
            for i in range(6 * GEO.pages_per_node):
                yield from fs.write_file("hot", bytes([i % 251]) * 64)

        sim.run_process(churn(sim))
        assert device.wear.total_erases > 0
        spread = device.wear.spread()
        assert spread <= max(4, device.wear.max_erase_count // 2)


class TestAcceleratorSharing:
    def test_competing_apps_share_units_fifo(self):
        """Section 4: multiple application instances compete for the
        accelerator units; each engine holds one unit, granted FIFO."""
        sim = Simulator()
        engines = EngineArray([HammingEngine(sim, bytes(1000),
                                             bytes_per_ns=1.0)
                               for _ in range(2)])
        order = []

        def app(sim, name):
            yield from engines.pick().run_page(bytes(1000))
            order.append((name, sim.now))

        for i in range(4):
            sim.process(app(sim, f"app{i}"))
        sim.run()
        assert [name for name, _ in order] == ["app0", "app1", "app2",
                                               "app3"]
        # Two units, 1000 ns per page: apps 2 and 3 waited for releases.
        assert dict(order) == {"app0": 1000, "app1": 1000, "app2": 2000,
                               "app3": 2000}


class TestMultiNodeScaling:
    def test_nn_throughput_scales_with_nodes(self):
        """Section 7.1: 'performance should scale linearly with the
        number of nodes for this application' — each node queries its
        local shard independently."""
        def cluster_rate(n_nodes):
            sim = Simulator()
            cluster = BlueDBMCluster(sim, max(2, n_nodes),
                                     node_kwargs=dict(geometry=GEO))
            corpus = make_item_corpus(64, GEO.page_size, seed=5)
            apps = []
            for node in cluster.nodes[:n_nodes]:
                app = NearestNeighborISP(node, n_engines=4)
                app.load(corpus, LSHIndex(GEO.page_size, seed=5))
                apps.append(app)
            rates = []

            def run(app):
                rate = yield from app.throughput_run(corpus[0], 256)
                rates.append(rate)

            procs = [sim.process(run(app)) for app in apps]

            def waiter(sim):
                for proc in procs:
                    yield proc

            sim.run_process(waiter(sim))
            return sum(rates)

        one = cluster_rate(1)
        two = cluster_rate(2)
        assert two > 1.8 * one

    def test_remote_and_local_isp_reads_coexist(self):
        sim = Simulator()
        cluster = BlueDBMCluster(sim, 3, node_kwargs=dict(geometry=GEO))
        for node_id in range(3):
            addr = PhysAddr(node=node_id, page=1)
            cluster.nodes[node_id].device.store.program(
                addr, f"node{node_id}".encode())
        collected = {}

        def reader(sim, target):
            addr = PhysAddr(node=target, page=1)
            if target == 0:
                data = yield sim.process(cluster.nodes[0].isp_read(addr))
                collected[target] = data[:5]
            else:
                data = yield from cluster.isp_remote_flash(0, addr)
                collected[target] = data[:5]

        for target in range(3):
            sim.process(reader(sim, target))
        sim.run()
        assert collected == {0: b"node0", 1: b"node1", 2: b"node2"}


class TestGlobalAddressSpace:
    def test_every_node_page_is_uniquely_addressable(self):
        sim = Simulator()
        cluster = BlueDBMCluster(sim, 2, node_kwargs=dict(geometry=GEO))
        a = PhysAddr(node=0, card=1, bus=3, chip=2, block=5, page=7)
        b = a._replace(node=1)
        cluster.nodes[0].device.store.program(a, b"zero")
        cluster.nodes[1].device.store.program(b, b"one")
        assert cluster.nodes[0].device.store.read_data(a)[:4] == b"zero"
        assert cluster.nodes[1].device.store.read_data(b)[:3] == b"one"

    def test_cross_node_address_rejected_locally(self):
        sim = Simulator()
        node = BlueDBMNode(sim, node_id=0, geometry=GEO)
        with pytest.raises(ValueError):
            sim.run_process(node.isp_read(PhysAddr(node=1)))
