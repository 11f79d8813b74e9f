"""Tests for the page map, allocator, FTL core, and block-device FTL."""

import pytest

from repro.flash import FlashGeometry, FlashTiming, PhysAddr
from repro.flash.device import StorageDevice
from repro.ftl import BlockAllocator, BlockDeviceFTL, FtlCore, PageMap
from repro.sim import Simulator

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=4,
                    pages_per_block=4, page_size=64, cards_per_node=1)
FAST = FlashTiming(t_read_ns=1000, t_prog_ns=2000, t_erase_ns=5000,
                   bus_bytes_per_ns=1.0, aurora_bytes_per_ns=3.3,
                   aurora_latency_ns=10, cmd_overhead_ns=10)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def device(sim):
    return StorageDevice(sim, geometry=GEO, timing=FAST)


class TestPageMap:
    def test_map_and_lookup(self):
        pmap = PageMap(GEO)
        addr = PhysAddr(bus=1, block=2, page=3)
        assert pmap.lookup(7) is None
        pmap.map_page(7, addr)
        assert pmap.lookup(7) == addr
        assert pmap.reverse(addr) == 7
        assert pmap.mapped_count == 1

    def test_remap_invalidates_old(self):
        pmap = PageMap(GEO)
        old = PhysAddr(block=0, page=0)
        new = PhysAddr(block=1, page=0)
        pmap.map_page(7, old)
        assert pmap.lookup(7) == old
        pmap.map_page(7, new)
        assert pmap.lookup(7) == new
        assert pmap.reverse(old) is None
        assert pmap.valid_count(old) == 0
        assert pmap.valid_count(new) == 1

    def test_unmap(self):
        pmap = PageMap(GEO)
        addr = PhysAddr(page=1)
        pmap.map_page(3, addr)
        assert pmap.lookup(3) == addr
        pmap.unmap(3)
        assert pmap.lookup(3) is None
        pmap.unmap(3)
        assert pmap.lookup(3) is None

    def test_negative_lpn_rejected(self):
        with pytest.raises(ValueError):
            PageMap(GEO).map_page(-1, PhysAddr())

    def test_valid_pages_iteration(self):
        pmap = PageMap(GEO)
        pmap.map_page(0, PhysAddr(block=2, page=1))
        pmap.map_page(1, PhysAddr(block=2, page=3))
        pmap.map_page(2, PhysAddr(block=3, page=0))
        valid = list(pmap.valid_pages_of(PhysAddr(block=2)))
        assert [a.page for a in valid] == [1, 3]

    def test_drop_block_requires_all_invalid(self):
        pmap = PageMap(GEO)
        pmap.map_page(0, PhysAddr(block=1, page=0))
        with pytest.raises(ValueError):
            pmap.drop_block(PhysAddr(block=1))
        pmap.unmap(0)
        pmap.drop_block(PhysAddr(block=1))  # now fine


class TestBlockAllocator:
    def _alloc(self, device):
        return BlockAllocator(device.geometry, device.badblocks,
                              device.wear, node=0)

    def test_write_points_stripe_across_chips(self, device):
        alloc = self._alloc(device)
        n_chips = GEO.buses_per_card * GEO.chips_per_bus
        addrs = [alloc.next_page() for _ in range(n_chips)]
        assert len({a[:4] for a in addrs}) == n_chips
        assert all(a.page == 0 for a in addrs)

    def test_sequential_pages_within_open_block(self, device):
        alloc = self._alloc(device)
        n_chips = GEO.buses_per_card * GEO.chips_per_bus
        first_round = [alloc.next_page() for _ in range(n_chips)]
        second_round = [alloc.next_page() for _ in range(n_chips)]
        # Same chips again, page advanced to 1 (NAND program order).
        assert all(a.page == 1 for a in second_round)
        assert ([a[:4] for a in first_round]
                == [a[:4] for a in second_round])

    def test_exhaustion_returns_none(self, device):
        alloc = self._alloc(device)
        for _ in range(GEO.pages_per_node):
            assert alloc.next_page() is not None
        assert alloc.next_page() is None

    def test_release_recycles_block(self, device):
        alloc = self._alloc(device)
        taken = [alloc.next_page() for _ in range(GEO.pages_per_node)]
        alloc.release_block(taken[0])
        assert alloc.free_blocks == 1
        addr = alloc.next_page()
        assert addr[:4] == taken[0][:4]
        assert addr.block == taken[0].block

    def test_double_release_rejected(self, device):
        alloc = self._alloc(device)
        addrs = [alloc.next_page() for _ in range(GEO.pages_per_node)]
        alloc.release_block(addrs[0])
        with pytest.raises(ValueError):
            alloc.release_block(addrs[0])

    def test_bad_blocks_never_allocated(self, sim):
        device = StorageDevice(sim, geometry=GEO, timing=FAST)
        bad = PhysAddr(bus=0, chip=0, block=0)
        device.badblocks.mark_bad(bad)
        alloc = BlockAllocator(device.geometry, device.badblocks,
                               device.wear, node=0)
        seen = set()
        while True:
            addr = alloc.next_page()
            if addr is None:
                break
            seen.add((addr.bus, addr.chip, addr.block))
        assert (0, 0, 0) not in seen

    def test_wear_leveling_prefers_cold_blocks(self, device):
        alloc = self._alloc(device)
        # Age block 0 of chip (0,0) heavily.
        for _ in range(5):
            device.wear.record_erase(PhysAddr(block=0))
        first = alloc.next_page()
        # The allocator picked a block with zero erases, not block 0.
        assert device.wear.erase_count(first) == 0


def raw_core(sim, device, gc_low_watermark=2):
    """An :class:`FtlCore` whose GC port is the raw device."""
    return FtlCore(sim, device, device, gc_low_watermark=gc_low_watermark)


def write_lpn(core, lpn, data):
    """Foreground write straight to the core's device (DES generator)."""
    yield from core.write(lpn, data, core.device.write_page)


def read_lpn(core, lpn):
    """Foreground read straight from the core's device (DES generator)."""
    data = yield from core.read(lpn, core.device.read_page)
    return data


class TestLogCore:
    """:class:`FtlCore` driven directly over the raw device."""

    def test_write_read_roundtrip(self, sim, device):
        core = raw_core(sim, device)

        def proc(sim):
            yield from write_lpn(core, 5, b"logical five")
            data = yield from read_lpn(core, 5)
            return data

        assert sim.run_process(proc(sim)).startswith(b"logical five")

    def test_unmapped_read_is_erased(self, sim, device):
        core = raw_core(sim, device)

        def proc(sim):
            data = yield from read_lpn(core, 9)
            return data

        assert sim.run_process(proc(sim)) == b"\xff" * 64

    def test_overwrite_remaps_out_of_place(self, sim, device):
        core = raw_core(sim, device)

        def proc(sim):
            yield from write_lpn(core, 1, b"v1")
            first = core.map.lookup(1)
            yield from write_lpn(core, 1, b"v2")
            second = core.map.lookup(1)
            data = yield from read_lpn(core, 1)
            return first, second, data

        first, second, data = sim.run_process(proc(sim))
        assert first != second
        assert data.startswith(b"v2")

    def test_gc_reclaims_invalidated_space(self, sim, device, chip_ops):
        core = raw_core(sim, device)
        total = GEO.pages_per_node

        def proc(sim):
            # Overwrite a small working set far beyond physical capacity;
            # without GC this would exhaust the 128 physical pages.
            for i in range(3 * total):
                yield from write_lpn(core, i % 8, b"hot data")
            data = yield from read_lpn(core, 0)
            return data

        data = sim.run_process(proc(sim))
        assert data.startswith(b"hot data")
        assert core.stats()["gc_runs"] > 0
        assert core.stats()["gc_moved_pages"] >= 0
        assert chip_ops["erase"] > 0

    def test_write_amplification_accounting(self, sim, device):
        core = raw_core(sim, device)

        def proc(sim):
            for i in range(2 * GEO.pages_per_node):
                yield from write_lpn(core, i % 8, b"x")

        sim.process(proc(sim))
        sim.run()
        assert core.write_amplification() >= 1.0
        assert core.stats()["user_writes"] == {
            "ftl": 2 * GEO.pages_per_node}

    def test_trim_then_read_erased(self, sim, device):
        core = raw_core(sim, device)

        def proc(sim):
            yield from write_lpn(core, 3, b"temp")
            core.map.unmap(3)
            data = yield from read_lpn(core, 3)
            return data

        assert sim.run_process(proc(sim)) == b"\xff" * 64


def full_stripe_core(sim, device):
    """A raw-device core with every chip's least-worn block exactly full.

    Writes LPNs 0..15: the striped rotation lands LPN ``i`` on chip
    index ``i % 4`` (enumeration order bus-fastest: (0,0,0,0),
    (0,0,1,0), (0,0,0,1), (0,0,1,1)), page ``i // 4`` — so chip
    (0,0,0,0)'s block 0 holds LPNs 0, 4, 8, 12 in page order.
    """
    core = raw_core(sim, device)

    def fill(sim):
        for lpn in range(16):
            yield from write_lpn(core, lpn, f"v{lpn}".encode())

    sim.run_process(fill(sim))
    return core


class TestLegacyCoreGCRaces:
    """The GC race fixes over the raw device: the core re-checks the
    mapping around relocation I/O whatever object its GC port is."""

    def _trimmed_core(self, sim, device):
        # Victim by construction: TRIM LPNs 0 and 4, so chip
        # (0,0,0,0)'s block keeps only LPNs 8 (page 2) and 12 (page 3)
        # — fewest valid, relocated in page order (8 first).
        core = full_stripe_core(sim, device)
        core.map.unmap(0)
        core.map.unmap(4)
        return core

    def test_foreground_overwrite_during_relocation_wins(self, sim,
                                                         device):
        # A foreground write to LPN 8 whose program completes while
        # GC's relocation of that very page is in flight must win:
        # last-completer-wins is decided by the map, and GC must not
        # remap the LPN to its (now stale) copy.
        core = self._trimmed_core(sim, device)
        race = {}
        original = device.write_page

        def racy_write_page(addr, data, **kwargs):
            race.setdefault("calls", []).append(addr)
            if len(race["calls"]) == 1:
                # LPN 8's relocation: emulate a foreground overwrite
                # completing while this program is in flight.
                fresh = core.allocator.next_page()
                core.map.map_page(8, fresh)
                core.program_done(fresh)
                race["fresh"] = fresh
                race["stale_dest"] = addr
            return original(addr, data, **kwargs)

        device.write_page = racy_write_page
        assert sim.run_process(core.force_gc())
        # The newer mapping survived; the stale copy was abandoned.
        assert core.map.lookup(8) == race["fresh"]
        assert core.map.reverse(race["fresh"]) == 8
        assert core.map.reverse(race["stale_dest"]) is None
        stats = core.stats()
        assert stats["gc_stale_moves"] == 1
        assert stats["gc_moved_pages"] == 1             # LPN 12 only
        # total = user + moved + stale (the fresh page was mapped
        # behind the accounting's back, so it charges nothing).
        assert stats["total_programs"] == 16 + 1 + 1

    def test_trim_during_relocation_write_not_resurrected(self, sim,
                                                          device):
        core = self._trimmed_core(sim, device)
        calls = []
        original = device.write_page

        def racy_write_page(addr, data, **kwargs):
            calls.append(addr)
            if len(calls) == 1:
                core.map.unmap(8)
            return original(addr, data, **kwargs)

        device.write_page = racy_write_page
        assert sim.run_process(core.force_gc())
        assert core.map.lookup(8) is None
        assert core.map.reverse(calls[0]) is None
        stats = core.stats()
        assert stats["gc_stale_moves"] == 1
        assert stats["gc_moved_pages"] == 1

    def test_trim_during_relocation_read_skips_the_copy(self, sim,
                                                        device):
        # Overtaken while the read was still in flight: GC must skip
        # the relocation entirely — no destination page burned.
        core = self._trimmed_core(sim, device)
        calls = []
        original = device.read_page

        def racy_read_page(addr, **kwargs):
            calls.append(addr)
            if len(calls) == 1:
                core.map.unmap(8)
            return original(addr, **kwargs)

        device.read_page = racy_read_page
        assert sim.run_process(core.force_gc())
        assert core.map.lookup(8) is None
        stats = core.stats()
        assert stats["gc_stale_moves"] == 0
        assert stats["gc_moved_pages"] == 1
        assert stats["total_programs"] == 16 + 1


class TestLegacyCoreAccounting:
    def test_failed_program_charges_nothing_but_burns_page(self, sim,
                                                           device):
        # A write whose program fails must not count as a user write
        # (write-amplification stays honest) and must not leak its
        # allocated page: it is retired programmed-and-invalid so the
        # block still fills toward GC eligibility.
        core = raw_core(sim, device)
        original = device.write_page
        state = {"failed": 0}

        def exploding_write_page(addr, data, **kwargs):
            if not state["failed"]:
                state["failed"] = 1

                def boom():
                    yield sim.timeout(10)
                    raise RuntimeError("program lost")
                return boom()
            return original(addr, data, **kwargs)

        device.write_page = exploding_write_page
        with pytest.raises(RuntimeError, match="program lost"):
            sim.run_process(write_lpn(core, 0, b"x"))
        assert core.stats()["user_writes"] == {}
        assert core.stats()["total_programs"] == 0
        assert core.write_amplification() == 1.0
        assert core.map.lookup(0) is None
        # The burned page counts toward its block's fill...
        assert sum(core._program_next.values()) == 1
        # ...and does not gate later same-block programs.
        sim.run_process(write_lpn(core, 0, b"y"))
        assert core.map.lookup(0) is not None
        stats = core.stats()
        assert stats["user_writes"] == {"ftl": 1}
        assert stats["total_programs"] == (sum(stats["user_writes"].values())
                                           + stats["gc_moved_pages"]
                                           + stats["gc_stale_moves"])


class TestLegacyCoreVictimOrder:
    def test_equal_validity_ties_resolve_by_block_key(self, sim, device):
        # TRIM one page each from the blocks on chips (0,0,1,0) and
        # (0,0,0,1): both drop to 3 valid pages (a tie), and the victim
        # order must follow the block key tuple — (0,0,0,1,0) first —
        # by construction, never set-iteration order.
        core = full_stripe_core(sim, device)
        core.map.unmap(1)  # chip (0,0,1,0), page 0
        core.map.unmap(2)  # chip (0,0,0,1), page 0
        assert sim.run_process(core.force_gc())
        assert sim.run_process(core.force_gc())
        assert core.gc_victims == [(0, 0, 0, 1, 0), (0, 0, 1, 0, 0)]


class TestBlockDeviceFTL:
    def test_logical_capacity_reflects_overprovision(self, sim, device):
        ftl = BlockDeviceFTL(sim, device, overprovision=0.25)
        assert ftl.logical_pages == int(GEO.pages_per_node * 0.75)

    def test_out_of_range_lpn_rejected(self, sim, device):
        ftl = BlockDeviceFTL(sim, device, overprovision=0.25)
        with pytest.raises(ValueError):
            sim.run_process(ftl.write(ftl.logical_pages, b"x"))

    def test_sustained_random_overwrites_survive(self, sim, device):
        """The paper's ext4-on-FTL compatibility path: random overwrite
        traffic within logical capacity must never run out of space."""
        ftl = BlockDeviceFTL(sim, device, overprovision=0.5,
                             gc_low_watermark=2)
        import random
        rng = random.Random(7)

        def proc(sim):
            for i in range(4 * GEO.pages_per_node):
                lpn = rng.randrange(ftl.logical_pages)
                yield from ftl.write(lpn, f"gen-{i}".encode())

        sim.process(proc(sim))
        sim.run()
        assert ftl.core.write_amplification() >= 1.0
        assert len(ftl.core.gc_victims) > 0

    def test_data_integrity_across_gc(self, sim, device):
        ftl = BlockDeviceFTL(sim, device, overprovision=0.5,
                             gc_low_watermark=2)

        def proc(sim):
            # Write a stable page, then churn others to force GC.
            yield from ftl.write(0, b"precious")
            for i in range(3 * GEO.pages_per_node):
                yield from ftl.write(1 + (i % 4), b"churn")
            data = yield from ftl.core.read(0, device.read_page)
            return data

        assert sim.run_process(proc(sim)).startswith(b"precious")

    def test_invalid_overprovision(self, sim, device):
        with pytest.raises(ValueError):
            BlockDeviceFTL(sim, device, overprovision=1.0)

    def test_trim_roundtrip(self, sim, device):
        ftl = BlockDeviceFTL(sim, device)

        def proc(sim):
            yield from ftl.write(2, b"data")
            ftl.core.map.unmap(2)
            data = yield from ftl.core.read(2, device.read_page)
            return data

        assert sim.run_process(proc(sim)) == b"\xff" * 64
