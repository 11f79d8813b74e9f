"""Edge-case tests for the storage device aggregate and node options."""

import pytest

from repro.core import BlueDBMNode
from repro.flash import (
    ErrorModel,
    FlashGeometry,
    FlashTiming,
    PhysAddr,
)
from repro.flash.device import StorageDevice
from repro.sim import Simulator, units

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=4,
                    pages_per_block=4, page_size=256, cards_per_node=2)
FAST = FlashTiming(t_read_ns=500, t_prog_ns=1000, t_erase_ns=2000,
                   bus_bytes_per_ns=1.0, aurora_bytes_per_ns=3.3,
                   aurora_latency_ns=5, cmd_overhead_ns=5)


@pytest.fixture
def sim():
    return Simulator()


class TestStorageDevice:
    def test_routes_across_cards(self, sim):
        device = StorageDevice(sim, geometry=GEO, timing=FAST)
        a0 = PhysAddr(card=0, page=1)
        a1 = PhysAddr(card=1, page=1)
        device.store.program(a0, b"card zero")
        device.store.program(a1, b"card one")

        def proc(sim):
            r0 = yield from device.read_page(a0)
            r1 = yield from device.read_page(a1)
            return r0.data[:9], r1.data[:8]

        d0, d1 = sim.run_process(proc(sim))
        assert (d0, d1) == (b"card zero", b"card one")

    def test_wrong_node_rejected(self, sim):
        device = StorageDevice(sim, geometry=GEO, timing=FAST, node=2)
        with pytest.raises(ValueError, match="node"):
            sim.run_process(device.read_page(PhysAddr(node=0)))

    def test_nonexistent_card_rejected(self, sim):
        device = StorageDevice(sim, geometry=GEO, timing=FAST)
        with pytest.raises(ValueError, match="card"):
            sim.run_process(device.read_page(PhysAddr(card=7)))

    def test_shared_wear_and_badblocks_across_cards(self, sim, chip_ops):
        device = StorageDevice(sim, geometry=GEO, timing=FAST)

        def proc(sim):
            yield from device.erase_block(PhysAddr(card=0, block=1))
            yield from device.erase_block(PhysAddr(card=1, block=2))

        sim.run_process(proc(sim))
        assert device.wear.total_erases == 2
        assert chip_ops["erase"] == 2

    def test_aggregate_counters_and_tags(self, sim, chip_ops):
        device = StorageDevice(sim, geometry=GEO, timing=FAST)
        assert device.tag_count == 2 * 128

        def proc(sim):
            yield from device.write_page(PhysAddr(card=1), b"x")
            yield from device.read_page(PhysAddr(card=1))

        sim.run_process(proc(sim))
        assert chip_ops["read"] == 1
        assert chip_ops["program"] == 1

    def test_cards_share_error_model_independently_seeded(self, sim):
        device = StorageDevice(
            sim, geometry=GEO, timing=FAST,
            errors=ErrorModel(page_error_prob=1.0,
                              double_error_fraction=0.0))
        device.store.program(PhysAddr(card=0), bytes(256))
        device.store.program(PhysAddr(card=1), bytes(256))

        def proc(sim):
            r0 = yield from device.read_page(PhysAddr(card=0))
            r1 = yield from device.read_page(PhysAddr(card=1))
            return r0, r1

        r0, r1 = sim.run_process(proc(sim))
        # Both cards injected and corrected an error on clean data.
        assert r0.corrected_bits == 1 and r1.corrected_bits == 1
        assert r0.data == bytes(256) and r1.data == bytes(256)


class TestNodeOptions:
    def test_onboard_dram_bandwidth_option(self, sim):
        node = BlueDBMNode(sim, geometry=GEO, flash_timing=FAST,
                           onboard_dram_gbs=2.0)
        node.dram.store(0, b"buffered")
        done = []

        def proc(sim):
            data = yield from node.dram.read(0)
            done.append((sim.now, data))

        sim.process(proc(sim))
        sim.run()
        elapsed, data = done[0]
        assert data.startswith(b"buffered")
        # 256B at 2 GB/s = 128 ns plus the fixed access latency.
        assert elapsed >= units.transfer_ns(256, 2.0)

    def test_net_port_isolated_from_isp_port(self, sim):
        """Remote-service traffic and local ISP traffic use separate
        splitter ports, so their tag renaming is independent."""
        node = BlueDBMNode(sim, geometry=GEO, flash_timing=FAST)
        tags = {}

        def isp(sim):
            result = yield from _read(node.isp_port, PhysAddr())
            tags["isp"] = result.tag

        def net(sim):
            result = yield from _read(node.net_port, PhysAddr(page=1))
            tags["net"] = result.tag

        def _read(port, addr):
            result = yield sim.process(port.read_page(addr))
            return result

        sim.process(isp(sim))
        sim.process(net(sim))
        sim.run()
        # Both ports hand out their own tag 0.
        assert tags == {"isp": 0, "net": 0}

    def test_node_seed_changes_error_pattern(self, sim):
        def first_flip(seed):
            s = Simulator()
            node = BlueDBMNode(
                s, geometry=GEO, flash_timing=FAST, seed=seed,
                errors=ErrorModel(page_error_prob=1.0,
                                  double_error_fraction=0.0))
            node.device.store.program(PhysAddr(), bytes(256))
            card = node.device.cards[0]
            chip = card.chips[(0, 0)]
            data = chip._flip_bits(bytes(256), 1)
            return data

        assert first_flip(1) != first_flip(2)
