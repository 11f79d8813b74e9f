"""Tests for the LSH nearest-neighbour application."""

import pytest

from repro.apps import (
    LSHIndex,
    NearestNeighborISP,
    SoftwareNN,
    TieredPageStore,
    brute_force_nearest,
    make_item_corpus,
)
from repro.core import BlueDBMNode
from repro.devices import CommoditySSD, DRAMStore, HardDisk
from repro.flash import FlashGeometry
from repro.host import HostConfig, HostCPU
from repro.sim import Simulator

GEO = FlashGeometry(buses_per_card=4, chips_per_bus=4, blocks_per_chip=8,
                    pages_per_block=8, page_size=2048, cards_per_node=2)
ITEM_BYTES = 2048


@pytest.fixture
def sim():
    return Simulator()


class TestLSHIndex:
    def test_similar_items_share_buckets(self):
        corpus = make_item_corpus(64, ITEM_BYTES, seed=1, n_clusters=2)
        index = LSHIndex(ITEM_BYTES, n_tables=6, bits_per_hash=8, seed=2)
        for item_id, data in corpus.items():
            index.insert(item_id, data)
        # Query with a corpus member: its bucket should contain mostly
        # same-cluster items (even ids are cluster 0).
        candidates = index.candidates(corpus[0])
        assert 0 in candidates
        same_cluster = sum(1 for c in candidates if c % 2 == 0)
        assert same_cluster >= len(candidates) * 0.8

    def test_candidates_deduplicated(self):
        index = LSHIndex(ITEM_BYTES, n_tables=4, bits_per_hash=4, seed=0)
        data = bytes(ITEM_BYTES)
        index.insert(7, data)
        assert index.candidates(data).count(7) == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LSHIndex(ITEM_BYTES, n_tables=0)

    def test_corpus_generator_validates(self):
        with pytest.raises(ValueError):
            make_item_corpus(0, ITEM_BYTES)


class TestBruteForceOracle:
    def test_finds_exact_duplicate(self):
        corpus = make_item_corpus(16, ITEM_BYTES, seed=3)
        best_id, dist = brute_force_nearest(corpus[5], corpus)
        assert best_id == 5
        assert dist == 0


class TestISPQuery:
    def _build(self, sim, n_items=32):
        node = BlueDBMNode(sim, geometry=GEO)
        app = NearestNeighborISP(node, n_engines=4)
        corpus = make_item_corpus(n_items, ITEM_BYTES, seed=11,
                                  n_clusters=2)
        index = LSHIndex(ITEM_BYTES, n_tables=6, bits_per_hash=8, seed=5)
        app.load(corpus, index)
        return node, app, corpus

    def test_query_matches_bucket_oracle(self, sim):
        node, app, corpus = self._build(sim)
        query = corpus[3]

        def proc(sim):
            result = yield from app.query(query)
            return result

        best_id, dist = sim.run_process(proc(sim))
        # Oracle over the same candidate set the index produced.
        cand = {i: corpus[i] for i in app.index.candidates(query)}
        oracle_id, oracle_dist = brute_force_nearest(query, cand)
        assert dist == oracle_dist
        assert best_id in {i for i, d in cand.items()
                           if (d is not None and
                               brute_force_nearest(query, {i: d})[1]
                               == oracle_dist)} or best_id == oracle_id

    def test_query_explicit_candidates(self, sim):
        node, app, corpus = self._build(sim)
        # An index holding only items 3 and 7 makes them the candidates.
        app.index = LSHIndex(ITEM_BYTES, n_tables=1, bits_per_hash=1,
                             seed=5)
        for item_id in (3, 7):
            app.index.insert(item_id, corpus[item_id])

        def proc(sim):
            result = yield from app.query(corpus[3])
            return result

        best_id, dist = sim.run_process(proc(sim))
        assert best_id == 3
        assert dist == 0

    def test_empty_candidates(self, sim):
        node, app, corpus = self._build(sim)
        app.index = LSHIndex(ITEM_BYTES, n_tables=6, bits_per_hash=8,
                             seed=5)

        def proc(sim):
            result = yield from app.query(b"\x00" * ITEM_BYTES)
            return result

        assert sim.run_process(proc(sim)) == (-1, None)

    def test_throughput_run_returns_rate(self, sim):
        node, app, corpus = self._build(sim)

        def proc(sim):
            rate = yield from app.throughput_run(corpus[0], 64)
            return rate

        rate = sim.run_process(proc(sim))
        assert rate > 0

    def test_corpus_too_big_rejected(self, sim):
        node = BlueDBMNode(sim, geometry=GEO)
        app = NearestNeighborISP(node)
        big = make_item_corpus(GEO.pages_per_node + 1, ITEM_BYTES)
        with pytest.raises(ValueError):
            app.load(big, LSHIndex(ITEM_BYTES))


class TestSoftwarePaths:
    def test_software_nn_on_dram(self, sim):
        cpu = HostCPU(sim, HostConfig())
        dram = DRAMStore(sim, page_size=ITEM_BYTES)
        corpus = make_item_corpus(16, ITEM_BYTES, seed=2)
        for i, data in corpus.items():
            dram.store(i, data)
        app = SoftwareNN(sim, cpu, dram.read)

        def proc(sim):
            rate = yield from app.run(corpus[0], list(corpus), threads=2,
                                      n_comparisons=64)
            return rate

        rate = sim.run_process(proc(sim))
        # 2 threads at 12.5us each -> ~160K cmp/s.
        assert rate == pytest.approx(160_000, rel=0.2)

    def test_thread_scaling_until_core_limit(self, sim):
        def run(threads):
            s = Simulator()
            cpu = HostCPU(s, HostConfig(n_cores=4))
            dram = DRAMStore(s, page_size=ITEM_BYTES)
            corpus = make_item_corpus(8, ITEM_BYTES, seed=2)
            for i, data in corpus.items():
                dram.store(i, data)
            app = SoftwareNN(s, cpu, dram.read)

            def proc(s):
                rate = yield from app.run(corpus[0], list(corpus),
                                          threads=threads,
                                          n_comparisons=128)
                return rate
            return s.run_process(proc(s))

        r1, r4, r8 = run(1), run(4), run(8)
        assert r4 > 3 * r1          # near-linear up to the core count
        assert r8 < r4 * 1.3        # compute-bound beyond it

    def test_tiered_store_misses_hurt(self, sim):
        def run(miss_fraction):
            s = Simulator()
            cpu = HostCPU(s, HostConfig())
            dram = DRAMStore(s, page_size=ITEM_BYTES)
            ssd = CommoditySSD(s, page_size=ITEM_BYTES)
            corpus = make_item_corpus(8, ITEM_BYTES, seed=2)
            for i, data in corpus.items():
                dram.store(i, data)
                # Scatter on the SSD so misses are genuinely random
                # (clustered pages would hit the prefetcher).
                ssd.store(i * 1009, data)

            class _Scattered:
                def read(self, page):
                    data = yield from ssd.read(page * 1009)
                    return data

            tiered = TieredPageStore(s, dram, _Scattered(), miss_fraction,
                                     seed=3)
            app = SoftwareNN(s, cpu, tiered.read)

            def proc(s):
                rate = yield from app.run(corpus[0], list(corpus),
                                          threads=8, n_comparisons=256)
                return rate
            return s.run_process(proc(s))

        pure = run(0.0)
        with_misses = run(0.10)
        # Figure 17: 10% misses collapse throughput by far more than 10%.
        assert with_misses < pure / 2

    def test_disk_misses_catastrophic(self, sim):
        s = Simulator()
        cpu = HostCPU(s, HostConfig())
        dram = DRAMStore(s, page_size=ITEM_BYTES)
        hdd = HardDisk(s, page_size=ITEM_BYTES)
        corpus = make_item_corpus(8, ITEM_BYTES, seed=2)
        for i, data in corpus.items():
            dram.store(i, data)
            hdd.store(i, data)
        tiered = TieredPageStore(s, dram, hdd, 0.05, seed=3)
        app = SoftwareNN(s, cpu, tiered.read)

        def proc(s):
            rate = yield from app.run(corpus[0], list(corpus), threads=8,
                                      n_comparisons=128)
            return rate

        rate = s.run_process(proc(s))
        assert rate < 20_000  # paper: <10K cmp/s at 8 threads

    def test_invalid_run_parameters(self, sim):
        cpu = HostCPU(sim, HostConfig())
        dram = DRAMStore(sim, page_size=ITEM_BYTES)
        app = SoftwareNN(sim, cpu, dram.read)
        with pytest.raises(ValueError):
            sim.run_process(app.run(b"q", [0], threads=0, n_comparisons=1))

    def test_tiered_invalid_fraction(self, sim):
        dram = DRAMStore(sim, page_size=ITEM_BYTES)
        with pytest.raises(ValueError):
            TieredPageStore(sim, dram, dram, miss_fraction=1.5)
