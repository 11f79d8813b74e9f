"""Tests for the graph traversal and string search applications."""

import pytest

from repro.apps import (
    DistributedGraph,
    GraphTraversal,
    SoftwareGrep,
    StringSearchISP,
    make_text_corpus,
)
from repro.core import BlueDBMCluster, BlueDBMNode
from repro.devices import CommoditySSD, HardDisk
from repro.flash import FlashGeometry
from repro.host import HostConfig, HostCPU
from repro.isp import mp_search
from repro.sim import Simulator

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=8,
                    pages_per_block=8, page_size=2048, cards_per_node=2)
NODE_KW = dict(geometry=GEO)


@pytest.fixture
def sim():
    return Simulator()


class TestDistributedGraph:
    def test_vertices_sharded_round_robin(self, sim):
        cluster = BlueDBMCluster(sim, 3, node_kwargs=NODE_KW)
        graph = DistributedGraph(cluster, 30, avg_degree=4, seed=1)
        assert graph.owner(0) == 0
        assert graph.owner(1) == 1
        assert graph.owner(5) == 2

    def test_reference_walk_is_deterministic(self, sim):
        cluster = BlueDBMCluster(sim, 3, node_kwargs=NODE_KW)
        graph = DistributedGraph(cluster, 30, seed=1)
        assert (graph.reference_walk(0, 10)
                == graph.reference_walk(0, 10))

    def test_too_small_graph_rejected(self, sim):
        cluster = BlueDBMCluster(sim, 3, node_kwargs=NODE_KW)
        with pytest.raises(ValueError):
            DistributedGraph(cluster, 1)


class TestGraphTraversal:
    def _setup(self, sim, n_nodes=3, n_vertices=30):
        cluster = BlueDBMCluster(sim, n_nodes, node_kwargs=NODE_KW)
        graph = DistributedGraph(cluster, n_vertices, avg_degree=4, seed=7)
        return graph, GraphTraversal(graph, home_node=0, seed=7)

    def test_isp_walk_matches_reference(self, sim):
        graph, traversal = self._setup(sim)
        steps = 12

        def proc(sim):
            rate, path = yield from traversal.run("isp-f", 0, steps)
            return rate, path

        rate, path = sim.run_process(proc(sim))
        assert path == graph.reference_walk(0, steps)
        assert rate > 0

    def test_all_configs_traverse_correctly(self, sim):
        steps = 6
        for config in ["isp-f", "h-f", "h-rh-f", "dram-50f", "dram-30f",
                       "h-dram"]:
            s = Simulator()
            graph, traversal = self._setup(s)

            def proc(s):
                rate, path = yield from traversal.run(config, 0, steps)
                return path

            path = s.run_process(proc(s))
            assert path == graph.reference_walk(0, steps), config

    def test_isp_faster_than_via_remote_host(self, sim):
        steps = 10

        def run(config):
            s = Simulator()
            graph, traversal = self._setup(s)

            def proc(s):
                rate, _ = yield from traversal.run(config, 0, steps)
                return rate
            return s.run_process(proc(s))

        isp_rate = run("isp-f")
        rh_rate = run("h-rh-f")
        # Figure 20: ~3x gap between ISP-F and the generic path.
        assert isp_rate > 2 * rh_rate

    def test_unknown_config_rejected(self, sim):
        graph, traversal = self._setup(sim)
        with pytest.raises(ValueError):
            sim.run_process(traversal.run("warp-drive", 0, 5))


class TestTextCorpus:
    def test_expected_matches_verified_by_oracle(self):
        corpus, expected = make_text_corpus(20_000, b"BLUEDBM", 5, seed=3)
        found, _ = mp_search(corpus, b"BLUEDBM")
        assert found == expected
        assert len(expected) >= 5

    def test_too_small_corpus_rejected(self):
        with pytest.raises(ValueError):
            make_text_corpus(10, b"longneedle", 5)


class TestStringSearchISP:
    def test_finds_all_matches(self, sim):
        node = BlueDBMNode(sim, **NODE_KW)
        app = StringSearchISP(node, engines_per_bus=2)
        corpus, expected = make_text_corpus(24 * 2048, b"NEEDLE-X", 6,
                                            seed=5)

        def proc(sim):
            yield from app.setup(corpus)
            matches, gbs, cpu = yield from app.run(b"NEEDLE-X")
            return matches, gbs, cpu

        matches, gbs, cpu = sim.run_process(proc(sim))
        assert matches == expected
        assert gbs > 0

    def test_boundary_spanning_match_found(self, sim):
        node = BlueDBMNode(sim, **NODE_KW)
        app = StringSearchISP(node, engines_per_bus=2)
        # Place a needle exactly across a page boundary.
        page = node.geometry.page_size
        corpus = bytearray(b"." * (page * 4))
        needle = b"SPANNING"
        corpus[page - 4:page + 4] = needle

        def proc(sim):
            yield from app.setup(bytes(corpus))
            matches, _, _ = yield from app.run(needle)
            return matches

        assert sim.run_process(proc(sim)) == [page + 3]

    def test_near_zero_host_cpu(self, sim):
        node = BlueDBMNode(sim, **NODE_KW)
        app = StringSearchISP(node)
        corpus, _ = make_text_corpus(32 * 2048, b"TARGET", 4, seed=6)

        def proc(sim):
            yield from app.setup(corpus)
            _, _, cpu = yield from app.run(b"TARGET")
            return cpu

        cpu = sim.run_process(proc(sim))
        # Only the setup burst: a few percent of one core at most.
        assert cpu < 0.10

    def test_run_before_setup_rejected(self, sim):
        node = BlueDBMNode(sim, **NODE_KW)
        app = StringSearchISP(node)
        with pytest.raises(RuntimeError):
            sim.run_process(app.run(b"X"))


class TestSoftwareGrep:
    def _run(self, device_factory, corpus, needle):
        sim = Simulator()
        cpu = HostCPU(sim, HostConfig())
        device = device_factory(sim)
        grep = SoftwareGrep(sim, cpu, device)
        n_pages = grep.load(corpus, page_size=2048)

        def proc(sim):
            return (yield from grep.run(needle, n_pages, page_size=2048))

        return sim.run_process(proc(sim))

    def test_grep_on_ssd_finds_matches_at_device_speed(self):
        corpus, expected = make_text_corpus(64 * 2048, b"PATTERN", 8,
                                            seed=9)
        matches, gbs, cpu = self._run(
            lambda s: CommoditySSD(s, page_size=2048), corpus, b"PATTERN")
        assert matches == expected
        # I/O bound at the SSD's sequential rate, with significant CPU.
        assert 0.3 < gbs <= 0.62
        assert cpu > 0.3

    def test_grep_on_hdd_is_slower_lower_cpu(self):
        corpus, expected = make_text_corpus(64 * 2048, b"PATTERN", 8,
                                            seed=9)
        matches, gbs, cpu = self._run(
            lambda s: HardDisk(s, page_size=2048), corpus, b"PATTERN")
        assert matches == expected
        assert gbs < 0.16
        assert cpu < 0.25
