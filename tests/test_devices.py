"""Tests for the baseline device models (SSD, HDD, DRAM)."""

import pytest

from repro.devices import CommoditySSD, DRAMStore, HardDisk
from repro.sim import Simulator, units


@pytest.fixture
def sim():
    return Simulator()


class TestCommoditySSD:
    def test_data_roundtrip(self, sim):
        ssd = CommoditySSD(sim)
        ssd.store(5, b"ssd payload")

        def proc(sim):
            data = yield from ssd.read(5)
            return data

        assert sim.run_process(proc(sim)).startswith(b"ssd payload")

    def test_sequential_faster_than_random(self, sim):
        """The Figure 18 asymmetry: arranged-sequential accesses are
        dramatically faster than random ones."""
        def run(pages):
            s = Simulator()
            ssd = CommoditySSD(s)

            def proc(s):
                for p in pages:
                    yield from ssd.read(p)
            s.process(proc(s))
            s.run()
            return s.now

        n = 64
        seq_time = run(list(range(n)))
        rand_time = run([(i * 37) % 1000 for i in range(n)])
        assert rand_time > 1.5 * seq_time

    def test_sequential_run_approaches_600mbs(self, sim):
        ssd = CommoditySSD(sim)
        n = 128
        took = []

        def proc(sim):
            for p in range(n):
                start = sim.now
                yield from ssd.read(p)
                took.append(sim.now - start)

        sim.process(proc(sim))
        sim.run()
        gbs = units.bandwidth_gbytes(n * ssd.page_size, sim.now)
        assert 0.45 < gbs <= 0.6
        # Every read after the first hit the prefetcher: it streamed at
        # the sequential rate with no random-access penalty.
        assert took[1:] == [units.transfer_ns(ssd.page_size,
                                              ssd.SEQ_GBS)] * (n - 1)

    def test_random_throughput_capped_below_sequential(self, sim):
        ssd = CommoditySSD(sim)
        pages = [(i * 37) % 4096 for i in range(128)]
        done = []

        def reader(sim, p):
            yield from ssd.read(p)
            done.append(sim.now)

        for p in pages:
            sim.process(reader(sim, p))
        sim.run()
        gbs = units.bandwidth_gbytes(len(pages) * 8192, max(done))
        assert gbs <= 0.35

    def test_queue_depth_bounds_concurrency(self, sim, monkeypatch):
        monkeypatch.setattr(CommoditySSD, "QUEUE_DEPTH", 1)
        ssd = CommoditySSD(sim)
        done = []

        def reader(sim, p):
            yield from ssd.read(p)
            done.append(sim.now)

        sim.process(reader(sim, 0))
        sim.process(reader(sim, 100))
        sim.run()
        assert done[1] >= 2 * (ssd.LATENCY_NS // 2)

    def test_invalid_parameters(self, sim):
        ssd = CommoditySSD(sim)
        with pytest.raises(ValueError):
            ssd.store(0, bytes(ssd.page_size + 1))
        with pytest.raises(ValueError):
            sim.run_process(ssd.read(-1))

    def test_unwritten_page_reads_zeros(self, sim):
        ssd = CommoditySSD(sim)

        def proc(sim):
            return (yield from ssd.read(999))

        assert sim.run_process(proc(sim)) == b"\x00" * 8192


class TestHardDisk:
    def test_random_read_pays_seek(self, sim):
        hdd = HardDisk(sim)

        def proc(sim):
            yield from hdd.read(10)
            return sim.now

        elapsed = sim.run_process(proc(sim))
        assert elapsed >= hdd.SEEK_NS + hdd.ROTATIONAL_NS

    def test_sequential_run_skips_seeks(self, sim):
        hdd = HardDisk(sim)

        def proc(sim):
            for p in range(32):
                yield from hdd.read(p)

        sim.process(proc(sim))
        sim.run()
        # Only the initial positioning: the rest is pure transfer.
        assert sim.now == hdd.SEEK_NS + hdd.ROTATIONAL_NS + 32 * (
            units.transfer_ns(hdd.page_size, hdd.TRANSFER_GBS))

    def test_sequential_bandwidth_near_platter_rate(self, sim):
        hdd = HardDisk(sim)

        def proc(sim):
            for p in range(256):
                yield from hdd.read(p)

        sim.process(proc(sim))
        sim.run()
        streaming = sim.now - hdd.SEEK_NS - hdd.ROTATIONAL_NS
        assert units.bandwidth_gbytes(256 * hdd.page_size, streaming) == \
            pytest.approx(0.15, rel=0.1)

    def test_random_iops_are_mechanical(self, sim):
        # ~83 IOPS at 12 ms positioning: random 8K reads crawl.
        hdd = HardDisk(sim)
        n = 16

        def proc(sim):
            for i in range(n):
                yield from hdd.read((i * 997) % 10_000)

        sim.process(proc(sim))
        sim.run()
        iops = n / units.to_s(sim.now)
        assert iops < 100

    def test_data_roundtrip(self, sim):
        hdd = HardDisk(sim)
        hdd.store(7, b"disk data")

        def proc(sim):
            return (yield from hdd.read(7))

        assert sim.run_process(proc(sim)).startswith(b"disk data")


class TestDRAMStore:
    def test_read_latency_is_nanoseconds(self, sim):
        dram = DRAMStore(sim)
        dram.store(0, b"fast")

        def proc(sim):
            data = yield from dram.read(0)
            return (sim.now, data)

        elapsed, data = sim.run_process(proc(sim))
        assert data.startswith(b"fast")
        assert elapsed < 1 * units.US

    def test_orders_of_magnitude_faster_than_ssd(self, sim):
        dram = DRAMStore(sim)
        ssd = CommoditySSD(sim)
        times = {}

        def dram_reader(sim):
            yield from dram.read(0)
            times["dram"] = sim.now

        def ssd_reader(sim):
            yield from ssd.read(0)
            times["ssd"] = sim.now

        sim.process(dram_reader(sim))
        sim.process(ssd_reader(sim))
        sim.run()
        assert times["ssd"] > 100 * times["dram"]

    def test_bandwidth_contention(self, sim):
        dram = DRAMStore(sim, bandwidth_gbs=10.0)
        done = []

        def reader(sim):
            yield from dram.read(0)
            done.append(sim.now)

        for _ in range(4):
            sim.process(reader(sim))
        sim.run()
        # Four 8K reads serialize on the memory bus.
        assert max(done) >= 4 * units.transfer_ns(8192, 10.0)

    def test_write_roundtrip(self, sim):
        dram = DRAMStore(sim)
        dram.store(1, b"mem")

        def proc(sim):
            return (yield from dram.read(1))

        assert sim.run_process(proc(sim)).startswith(b"mem")
