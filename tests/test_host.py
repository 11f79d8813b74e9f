"""Tests for the host interface package."""

import pytest

from repro.flash import FlashCard, FlashGeometry, FlashSplitter, FlashTiming, PhysAddr
from repro.host import (
    HostConfig,
    HostCPU,
    HostInterface,
    PageBufferPool,
    PCIeLink,
)
from repro.sim import Simulator, units

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=4,
                    pages_per_block=4, page_size=8192, cards_per_node=1)
CONFIG = HostConfig()


@pytest.fixture
def sim():
    return Simulator()


class TestHostConfig:
    def test_defaults_match_paper(self):
        assert CONFIG.pcie_dev_to_host_gbs == 1.6
        assert CONFIG.pcie_host_to_dev_gbs == 1.0
        assert CONFIG.read_buffers == 128
        assert CONFIG.write_buffers == 128
        assert CONFIG.dma_engines == 4
        assert CONFIG.n_cores == 24

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            HostConfig(pcie_dev_to_host_gbs=0)
        with pytest.raises(ValueError):
            HostConfig(read_buffers=0)
        with pytest.raises(ValueError):
            HostConfig(n_cores=0)


class TestPCIeLink:
    def test_dev_to_host_rate(self, sim):
        pcie = PCIeLink(sim, CONFIG)

        def proc(sim):
            yield sim.process(pcie.device_to_host(8192))
            return sim.now

        elapsed = sim.run_process(proc(sim))
        # 8KB at 1.6 GB/s = 5120 ns + setup latency.
        assert elapsed == units.transfer_ns(8192, 1.6) + CONFIG.pcie_latency_ns

    def test_host_to_dev_slower(self, sim):
        pcie = PCIeLink(sim, CONFIG)

        def proc(sim):
            yield sim.process(pcie.host_to_device(8192))
            return sim.now

        elapsed = sim.run_process(proc(sim))
        assert elapsed == units.transfer_ns(8192, 1.0) + CONFIG.pcie_latency_ns

    def test_wire_serializes_but_directions_are_independent(self, sim):
        pcie = PCIeLink(sim, CONFIG)
        done = {}

        def reader(sim):
            yield sim.process(pcie.device_to_host(8192))
            yield sim.process(pcie.device_to_host(8192))
            done["read"] = sim.now

        def writer(sim):
            yield sim.process(pcie.host_to_device(8192))
            done["write"] = sim.now

        sim.process(reader(sim))
        sim.process(writer(sim))
        sim.run()
        # Two reads serialize on the d2h wire.
        assert done["read"] >= 2 * units.transfer_ns(8192, 1.6)
        # The concurrent write was not delayed by the reads.
        assert done["write"] <= units.transfer_ns(8192, 1.0) + 2 * CONFIG.pcie_latency_ns

    def test_sustained_bandwidth_approaches_cap(self, sim):
        # Concurrent requests let the DMA engines hide the setup latency;
        # the wire then runs at its full 1.6 GB/s.
        pcie = PCIeLink(sim, CONFIG)
        n = 64

        def transfer(sim):
            yield sim.process(pcie.device_to_host(8192))

        for _ in range(n):
            sim.process(transfer(sim))
        sim.run()
        assert units.bandwidth_gbytes(n * 8192, sim.now) == pytest.approx(
            1.6, rel=0.05)

    def test_serial_requests_pay_setup_latency(self, sim):
        # One-at-a-time requests cannot reach the wire rate -- the reason
        # the implementation uses four read engines (Section 5.3).
        pcie = PCIeLink(sim, CONFIG)
        n = 16

        def proc(sim):
            for _ in range(n):
                yield sim.process(pcie.device_to_host(8192))

        sim.process(proc(sim))
        sim.run()
        assert units.bandwidth_gbytes(n * 8192, sim.now) < 1.5

    def test_negative_size_rejected(self, sim):
        pcie = PCIeLink(sim, CONFIG)
        with pytest.raises(ValueError):
            sim.run_process(pcie.device_to_host(-1))


class TestPageBufferPool:
    def test_acquire_release_roundtrip(self, sim):
        pool = PageBufferPool(sim, 4)

        def proc(sim):
            index = yield sim.process(pool.acquire())
            pool.release(index)
            return index

        assert sim.run_process(proc(sim)) == 0
        assert len(pool._free.items) == 4

    def test_exhaustion_blocks_until_release(self, sim):
        pool = PageBufferPool(sim, 1)
        got = []

        def hog(sim):
            a = yield sim.process(pool.acquire())
            yield sim.timeout(100)
            pool.release(a)

        def waiter(sim):
            index = yield sim.process(pool.acquire())
            got.append((sim.now, index))

        sim.process(hog(sim))
        sim.process(waiter(sim))
        sim.run()
        assert got[0][0] == 100

    def test_invalid_release(self, sim):
        pool = PageBufferPool(sim, 2)
        with pytest.raises(ValueError):
            pool.release(5)

    def test_zero_buffers_rejected(self, sim):
        with pytest.raises(ValueError):
            PageBufferPool(sim, 0)


class TestHostCPU:
    def test_compute_occupies_core(self, sim):
        cpu = HostCPU(sim, CONFIG)

        def proc(sim):
            yield sim.process(cpu.compute(1000))
            return sim.now

        assert sim.run_process(proc(sim)) == 1000

    def test_more_threads_than_cores_serialize(self, sim):
        small = HostConfig(n_cores=2)
        cpu = HostCPU(sim, small)
        done = []

        def worker(sim):
            yield sim.process(cpu.compute(100))
            done.append(sim.now)

        for _ in range(4):
            sim.process(worker(sim))
        sim.run()
        assert done == [100, 100, 200, 200]


class TestHostInterface:
    def _build(self, sim):
        card = FlashCard(sim, geometry=GEO, timing=FlashTiming())
        splitter = FlashSplitter(sim, card)
        cpu = HostCPU(sim, CONFIG)
        pcie = PCIeLink(sim, CONFIG)
        iface = HostInterface(sim, CONFIG, cpu, pcie, splitter.add_port(),
                              GEO.page_size)
        return card, iface

    def test_read_page_roundtrip(self, sim, chip_ops):
        card, iface = self._build(sim)
        addr = PhysAddr(bus=1, page=2)
        card.store.program(addr, b"host visible data")

        def proc(sim):
            data = yield sim.process(iface.read_page(addr))
            return data

        assert sim.run_process(proc(sim)).startswith(b"host visible data")
        assert chip_ops["read"] == 1

    def test_read_latency_includes_software_overhead(self, sim):
        card, iface = self._build(sim)

        def proc(sim):
            yield sim.process(iface.read_page(PhysAddr()))
            return sim.now

        elapsed = sim.run_process(proc(sim))
        floor = (CONFIG.software_request_ns + CONFIG.rpc_ns
                 + FlashTiming().t_read_ns
                 + units.transfer_ns(GEO.page_size, 1.6))
        assert elapsed >= floor

    def test_isp_path_skips_software_cost(self, sim):
        card, iface = self._build(sim)

        def timed(software_path):
            s = Simulator()
            c, i = self._build(s)

            def proc(s):
                yield s.process(i.read_page(PhysAddr(),
                                            software_path=software_path))
                return s.now
            return s.run_process(proc(s))

        assert (timed(True) - timed(False)
                == CONFIG.software_request_ns)

    def test_write_page_roundtrip(self, sim, chip_ops):
        card, iface = self._build(sim)
        addr = PhysAddr(block=1)

        def proc(sim):
            yield sim.process(iface.write_page(addr, b"written via host"))
            data = yield sim.process(iface.read_page(addr))
            return data

        assert sim.run_process(proc(sim)).startswith(b"written via host")
        assert (chip_ops["program"], chip_ops["read"]) == (1, 1)

    def test_host_throughput_capped_by_pcie(self, sim):
        """Figure 13 Host-Local: PCIe (1.6 GB/s) caps host-side reads
        below the flash device's native bandwidth."""
        # A 2.4 GB/s flash device (8 buses at 0.3 B/ns) behind the
        # 1.6 GB/s PCIe link.
        fast_geo = FlashGeometry(buses_per_card=8, chips_per_bus=4,
                                 blocks_per_chip=4, pages_per_block=4,
                                 page_size=8192, cards_per_node=1)
        card = FlashCard(sim, geometry=fast_geo,
                         timing=FlashTiming(bus_bytes_per_ns=0.3))
        splitter = FlashSplitter(sim, card)
        cpu = HostCPU(sim, CONFIG)
        pcie = PCIeLink(sim, CONFIG)
        iface = HostInterface(sim, CONFIG, cpu, pcie, splitter.add_port(),
                              fast_geo.page_size)
        assert card.peak_read_bandwidth() == pytest.approx(2.4)
        n = 384

        def reader(sim, i):
            addr = fast_geo.striped(i % fast_geo.pages_per_node)
            yield sim.process(iface.read_page(addr, software_path=False))

        for i in range(n):
            sim.process(reader(sim, i))
        sim.run()
        gbs = units.bandwidth_gbytes(n * fast_geo.page_size, sim.now)
        assert 1.3 < gbs < 1.65
