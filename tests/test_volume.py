"""The logical-volume write path: FTL mapping, coalesced programs, GC.

Covers the subsystem's contracts layer by layer:

* :meth:`FlashCard.program_pages` — one tag + one command setup per
  merged group, NAND order rules enforced up front;
* the program :class:`~repro.flash.coalesce.Coalescer` — strict ``+1``
  striped-run merging with per-child settlement;
* :class:`~repro.volume.LogicalVolume` — out-of-place remap, validity,
  prefill, per-tenant write amplification, GC through the dedicated
  port;
* spec plumbing — ``VolumeSpec``/``access="volume"``/``write_fraction``
  validation and round-trips.
"""

import dataclasses
import json

import pytest

from repro.api import (
    DistributedVolumeSpec,
    ScenarioSpec,
    Session,
    SpecError,
    TenantSpec,
    VolumeSpec,
    WorkloadSpec,
)
from repro.flash import FlashGeometry, FlashTiming, PhysAddr, ProgramError
from repro.flash.device import StorageDevice
from repro.ftl import OutOfSpaceError
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


# ----------------------------------------------------------------------
# FlashCard.program_pages
# ----------------------------------------------------------------------
class TestProgramPages:
    def test_merged_program_pays_one_command_setup(self, sim, device,
                                                   chip_ops):
        card = device.cards[0]
        addrs = [GEO.striped(i) for i in range(4)]
        datas = [bytes([i]) * GEO.page_size for i in range(4)]

        t_multi = sim.run_process(card.program_pages(addrs, datas))
        multi_elapsed = sim.now
        multi_programs = chip_ops["program"]
        for addr, data in zip(addrs, datas):
            assert device.store.read_data(addr) == data

        # The same pages one command at a time, fresh simulator.
        sim2 = Simulator()
        device2 = StorageDevice(sim2, geometry=GEO, timing=FAST)
        card2 = device2.cards[0]

        def serial(sim2):
            for i in range(4):
                yield sim2.process(card2.write_page(
                    GEO.striped(GEO.pages_per_block * 0 + i) if False
                    else addrs[i], datas[i]))

        sim2.run_process(serial(sim2))
        # Distinct chips program in parallel under one command, so the
        # merged command is strictly faster than the serial sequence.
        assert multi_elapsed < sim2.now
        assert multi_programs == 4

    def test_reorder_within_block_rejected_up_front(self, sim, device,
                                                    chip_ops):
        card = device.cards[0]
        block = PhysAddr(node=0, card=0, bus=0, chip=0, block=0)
        addrs = [block._replace(page=1),
                 block._replace(page=0)]
        datas = [b"x" * GEO.page_size] * 2
        with pytest.raises(ProgramError, match="reorder"):
            sim.run_process(card.program_pages(addrs, datas))
        # Nothing programmed, no time passed.
        assert chip_ops["program"] == 0

    def test_in_order_same_block_pages_allowed(self, sim, device):
        card = device.cards[0]
        block = PhysAddr(node=0, card=0, bus=0, chip=0, block=0)
        addrs = [block._replace(page=p) for p in range(3)]
        datas = [bytes([p]) * GEO.page_size for p in range(3)]
        sim.run_process(card.program_pages(addrs, datas))
        for addr, data in zip(addrs, datas):
            assert device.store.read_data(addr) == data

    def test_reprogram_rejected_by_chip(self, sim, device):
        card = device.cards[0]
        addr = PhysAddr(node=0)
        sim.run_process(card.write_page(addr, b"a" * GEO.page_size))
        with pytest.raises(ProgramError):
            sim.run_process(card.program_pages(
                [addr], [b"b" * GEO.page_size]))

    def test_multi_card_command_rejected(self, sim):
        two_cards = dataclasses.replace(GEO, cards_per_node=2)
        device = StorageDevice(sim, geometry=two_cards, timing=FAST)
        addrs = [PhysAddr(node=0, card=0), PhysAddr(node=0, card=1)]
        with pytest.raises(ValueError, match="cards"):
            sim.run_process(device.program_pages(
                addrs, [b"x" * GEO.page_size] * 2))


# ----------------------------------------------------------------------
# LogicalVolume through a Session
# ----------------------------------------------------------------------
def volume_spec(duration_ns=2_000_000, fill=0.0, write_fraction=1.0,
                pattern="sequential", queue_depth=4, coalesce=False,
                allocation="sequential", overprovision=0.5,
                watermark=2, geometry=GEO):
    return ScenarioSpec(
        name="volume-test", geometry=geometry, timing=FAST,
        coalesce=coalesce,
        volume=VolumeSpec(overprovision=overprovision,
                          allocation=allocation, fill=fill,
                          gc_low_watermark=watermark),
        workload=WorkloadSpec(duration_ns=duration_ns,
                              queue_depth=queue_depth, drain=True,
                              tenants=(TenantSpec(
                                  "vol", access="volume", workers=1,
                                  pattern=pattern,
                                  write_fraction=write_fraction,
                                  software_path=False, seed_base=1),)))


class TestLogicalVolume:
    def test_sequential_writes_land_stripe_adjacent(self):
        # Short window: the LBA stream must not wrap (no overwrites,
        # no GC), so every LPN keeps its first-pass mapping.
        session = Session(volume_spec(duration_ns=10_000))
        run = session.run()
        assert run.metrics["completions"]["vol"] > 0
        volume = session.volumes[0]
        # LPN k was written in issue order onto the sequential cursor:
        # consecutive LPNs sit at consecutive striped indices.
        indices = []
        for lpn in range(volume.logical_pages):
            addr = volume.core.map.lookup(lpn)
            if addr is None:
                break
            indices.append(GEO.striped_index(addr))
        assert len(indices) >= 2
        assert indices == list(range(indices[0],
                                     indices[0] + len(indices)))

    def test_overwrite_remaps_out_of_place_with_validity(self):
        session = Session(volume_spec(duration_ns=100))
        volume = session.volumes[0]
        iface = session._ifaces["vol"]
        sim = session.sim
        fill = b"\x07" * GEO.page_size

        def proc(sim):
            yield sim.process(iface.write_lpn(volume, 3, fill))
            first = volume.core.map.lookup(3)
            yield sim.process(iface.write_lpn(volume, 3, fill))
            second = volume.core.map.lookup(3)
            data = yield sim.process(iface.read_lpn(volume, 3))
            return first, second, data

        first, second, data = sim.run_process(proc(sim))
        assert first != second
        assert data == fill
        # The old page is invalid: its reverse mapping is gone.
        assert volume.core.map.reverse(first) is None
        assert volume.core.map.reverse(second) == 3

    def test_unmapped_read_returns_erased_without_device_io(self, chip_ops):
        session = Session(volume_spec(duration_ns=100))
        volume = session.volumes[0]
        iface = session._ifaces["vol"]
        sim = session.sim
        reads_before = chip_ops["read"]

        data = sim.run_process(iface.read_lpn(volume, 9))
        assert data == b"\xff" * GEO.page_size
        assert chip_ops["read"] == reads_before
        # No device command, so no completion interrupt either.
        assert "interrupt" not in iface.tracer.stage_histograms

    def test_out_of_range_lpn_rejected(self):
        session = Session(volume_spec(duration_ns=100))
        volume = session.volumes[0]
        with pytest.raises(ValueError, match="LPN"):
            volume.prefill(volume.logical_pages, 1)

    def test_prefill_maps_without_simulated_time_or_user_writes(self):
        session = Session(volume_spec(fill=0.5))
        volume = session.volumes[0]
        assert session.sim.now == 0
        expected = int(0.5 * volume.logical_pages)
        assert volume.core.ops["program", "prefill", None] == expected
        assert volume.core.map.mapped_count == expected
        assert sum(volume.core.stats()["user_writes"].values()) == 0
        assert volume.core.write_amplification() == 1.0

    def test_gc_reclaims_and_charges_write_amplification(self):
        # Small, nearly-full volume + sustained random overwrites:
        # GC must run, relocate through the volume-gc port, and charge
        # the owning tenant's WA.
        run = Session(volume_spec(
            duration_ns=30_000_000, fill=0.9, pattern="random",
            overprovision=0.25, watermark=4, queue_depth=8)).run()
        volume_stats = run.metrics["volume"][0]
        assert volume_stats["gc_runs"] > 0
        assert volume_stats["gc_moved"]["vol"] > 0
        wa = run.metrics["write_amplification"]["vol"]
        assert wa > 1.0
        # GC traffic rode the dedicated port and was traced under the
        # volume-gc label.
        assert "volume-gc" in run.tenant_stats
        # Accounting identity: total programs = user + relocated +
        # relocations a foreground completion overtook (programmed but
        # never remapped).
        assert volume_stats["total_programs"] == (
            sum(volume_stats["user_writes"].values())
            + volume_stats["gc_moved_pages"]
            + volume_stats["gc_stale_moves"])

    def test_failed_program_charges_nothing_but_burns_page(self):
        # A write whose program fails must not count as a user write
        # (write-amplification stays honest) and must not leak its
        # allocated page: it is retired programmed-and-invalid so the
        # block still fills toward GC eligibility.
        session = Session(volume_spec(duration_ns=100))
        volume = session.volumes[0]
        sim = session.sim

        class ExplodingIface:
            tenant = "vol"

            def _write_flow(self, addr, data, software_path, request):
                yield sim.timeout(10)
                raise RuntimeError("program lost")

        with pytest.raises(RuntimeError, match="program lost"):
            sim.run_process(volume.write_flow(
                ExplodingIface(), 0, b"x" * GEO.page_size, False, None))
        assert sum(volume.core.stats()["user_writes"].values()) == 0
        assert volume.core.stats()["total_programs"] == 0
        assert volume.core.write_amplification() == 1.0
        assert volume.core.map.lookup(0) is None
        # The burned page counts toward its block's fill...
        assert sum(volume.core._program_next.values()) == 1
        # ...and does not gate later same-block programs.
        iface = session._ifaces["vol"]
        sim.run_process(iface.write_lpn(volume, 0, b"y" * GEO.page_size))
        assert volume.core.map.lookup(0) is not None
        assert sum(volume.core.stats()["user_writes"].values()) == 1

    def test_write_beyond_capacity_raises_out_of_space(self):
        # Overprovision 0 and a full prefill: the very first GC-less
        # allocation failure must surface, not hang.
        session = Session(volume_spec(duration_ns=100, overprovision=0.0,
                                      fill=1.0))
        volume = session.volumes[0]
        iface = session._ifaces["vol"]
        sim = session.sim
        with pytest.raises(OutOfSpaceError):
            sim.run_process(iface.write_lpn(
                volume, 0, b"x" * GEO.page_size))

    def test_coalesced_sequential_volume_writes_merge(self):
        # A tight port slot cap makes the dispatcher's pacing bind, so
        # staged writes accumulate and merge while slots are busy.
        spec = volume_spec(coalesce=True, queue_depth=8)
        tenant = dataclasses.replace(spec.workload.tenants[0],
                                     max_in_flight=2)
        run = Session(dataclasses.replace(
            spec, workload=dataclasses.replace(
                spec.workload, tenants=(tenant,)))).run()
        stats = run.metrics["write_coalescing"][0]["vol"]
        assert stats["pages_per_command"] > 1.0
        assert stats["commands"] < stats["pages"]


# ----------------------------------------------------------------------
# GC vs. foreground completion races
# ----------------------------------------------------------------------
def raced_volume():
    """A volume with one full stripe group and a known victim.

    Prefills LPNs 0..15 (the whole stripe group: 4 chips x 4 pages),
    then TRIMs LPNs 0-2 so the victim — fewest valid, smallest key —
    is bus0/chip0's block, whose remaining valid pages hold LPNs
    4, 8, 12 in relocation (page) order.
    """
    session = Session(volume_spec(duration_ns=100, overprovision=0.5))
    volume = session.volumes[0]
    volume.prefill(0, 16)
    for lpn in range(3):
        volume.core.map.unmap(lpn)
    return session, volume


class TestGCRelocationRaces:
    def test_foreground_overwrite_during_relocation_wins(self):
        # A foreground write to LPN 8 whose program completes while
        # GC's relocation of that very page is in flight must win:
        # last-completer-wins is decided by the map, and GC must not
        # remap the LPN to its (now stale) copy.
        session, volume = raced_volume()
        sim = session.sim
        race = {}
        original = volume.core.gc_port.write_page

        def racy_write_page(addr, data, **kwargs):
            race.setdefault("calls", []).append(addr)
            if len(race["calls"]) == 2:
                # LPN 8's relocation: emulate a foreground overwrite
                # completing while this program is in flight.
                fresh = volume.core.allocator.next_page()
                volume.core.map.map_page(8, fresh)
                volume.core.program_done(fresh)
                race["fresh"] = fresh
                race["stale_dest"] = addr
            return original(addr, data, **kwargs)

        volume.core.gc_port.write_page = racy_write_page
        assert sim.run_process(volume.core.force_gc())
        # The newer mapping survived; the stale copy was abandoned.
        assert volume.core.map.lookup(8) == race["fresh"]
        assert volume.core.map.reverse(race["fresh"]) == 8
        assert volume.core.map.reverse(race["stale_dest"]) is None
        stats = volume.core.stats()
        assert stats["gc_stale_moves"] == 1
        assert stats["gc_moved_pages"] == 2             # LPNs 4 and 12
        assert stats["gc_moved"]["vol"] == 2

    def test_trim_during_relocation_write_not_resurrected(self):
        session, volume = raced_volume()
        sim = session.sim
        calls = []
        original = volume.core.gc_port.write_page

        def racy_write_page(addr, data, **kwargs):
            calls.append(addr)
            if len(calls) == 2:
                volume.core.map.unmap(8)
            return original(addr, data, **kwargs)

        volume.core.gc_port.write_page = racy_write_page
        assert sim.run_process(volume.core.force_gc())
        assert volume.core.map.lookup(8) is None
        assert volume.core.map.reverse(calls[1]) is None
        stats = volume.core.stats()
        assert stats["gc_stale_moves"] == 1
        assert stats["gc_moved_pages"] == 2

    def test_trim_during_relocation_read_skips_the_copy(self):
        # Overtaken while the read was still in flight: GC must skip
        # the relocation entirely — no destination page burned.
        session, volume = raced_volume()
        sim = session.sim
        calls = []
        original = volume.core.gc_port.read_page

        def racy_read_page(addr, **kwargs):
            calls.append(addr)
            if len(calls) == 2:
                volume.core.map.unmap(8)
            return original(addr, **kwargs)

        volume.core.gc_port.read_page = racy_read_page
        assert sim.run_process(volume.core.force_gc())
        assert volume.core.map.lookup(8) is None
        stats = volume.core.stats()
        assert stats["gc_stale_moves"] == 0
        assert stats["gc_moved_pages"] == 2
        assert stats["total_programs"] == 2


# ----------------------------------------------------------------------
# in-block program order across commands
# ----------------------------------------------------------------------
class TestInBlockProgramOrder:
    def test_programs_reach_chips_in_ascending_block_order(self):
        # Foreground tenant writes race GC relocations through
        # differently-arbitrated ports; the volume's per-block program
        # gate must keep every block's physical programs in ascending
        # page order between erases (the NAND in-block order rule).
        session = Session(volume_spec(
            duration_ns=30_000_000, fill=0.9, pattern="random",
            overprovision=0.25, watermark=4, queue_depth=8))
        store = session.node.device.store
        orig_program = store.program
        orig_erase = store.erase_block
        last = {}
        violations = []

        def watched_program(addr, data):
            key = (addr.bus, addr.chip, addr.block)
            prev = last.get(key)
            if prev is not None and addr.page <= prev:
                violations.append((key, prev, addr.page))
            last[key] = addr.page
            return orig_program(addr, data)

        def watched_erase(addr):
            last.pop((addr.bus, addr.chip, addr.block), None)
            return orig_erase(addr)

        store.program = watched_program
        store.erase_block = watched_erase
        run = session.run()
        # GC actually contended with foreground programs...
        assert run.metrics["volume"][0]["gc_runs"] > 0
        # ...and no block ever programmed a lower page after a higher.
        assert violations == []


# ----------------------------------------------------------------------
# spec validation + round-trips
# ----------------------------------------------------------------------
class TestVolumeSpecs:
    def test_volume_spec_round_trip(self):
        spec = volume_spec(fill=0.3, coalesce=True)
        data = json.loads(json.dumps(spec.to_dict()))
        assert VolumeSpec.from_dict(data["volume"]) == spec.volume
        assert data["volume"]["fill"] == 0.3

    def test_volume_spec_validation(self):
        with pytest.raises(SpecError, match="overprovision"):
            VolumeSpec(overprovision=1.0)
        with pytest.raises(SpecError, match="allocation"):
            VolumeSpec(allocation="zigzag")
        with pytest.raises(SpecError, match="fill"):
            VolumeSpec(fill=1.5)
        with pytest.raises(SpecError, match="gc_low_watermark"):
            VolumeSpec(gc_low_watermark=0)
        with pytest.raises(SpecError, match="gc_burst_kb"):
            VolumeSpec(gc_burst_kb=64.0)  # burst without a rate

    def test_volume_tenant_requires_volume_spec(self):
        with pytest.raises(SpecError, match="VolumeSpec"):
            ScenarioSpec(workload=WorkloadSpec(
                duration_ns=1000,
                tenants=(TenantSpec("vol", access="volume"),)))

    def test_volume_tenant_cannot_shadow_fixed_port(self):
        for name in ("isp", "host", "net"):
            with pytest.raises(SpecError, match="fixed splitter port"):
                TenantSpec(name, access="volume")

    def test_write_fraction_validation(self):
        with pytest.raises(SpecError, match="write_fraction"):
            TenantSpec("t", access="host", write_fraction=1.5)
        with pytest.raises(SpecError, match="write"):
            TenantSpec("isp", access="isp", write_fraction=0.5)
        # Host and volume tenants may mix writes.
        TenantSpec("host", access="host", write_fraction=0.5)
        TenantSpec("vol", access="volume", write_fraction=0.5)

    @staticmethod
    def _windowed(access, *tenants):
        """Build a half-overprovisioned volume or 2-shard dvol spec;
        return its windows method and logical capacity in pages."""
        workload = WorkloadSpec(duration_ns=1000, tenants=tenants)
        half = VolumeSpec(overprovision=0.5)
        per_node = int(GEO.pages_per_node * 0.5)
        if access == "volume":
            spec = ScenarioSpec(geometry=GEO, volume=half,
                                workload=workload)
            return spec.volume_windows, per_node
        spec = ScenarioSpec(
            geometry=GEO, n_nodes=2,
            dvol=DistributedVolumeSpec(shards=2, volume=half),
            workload=workload)
        return spec.dvol_windows, 2 * per_node

    @pytest.mark.parametrize("access", ["volume", "dvol"])
    def test_windows_partition_logical_space(self, access):
        windows_of, logical = self._windowed(
            access,
            TenantSpec("a", access=access, addr_space=8),
            TenantSpec("b", access=access),
            TenantSpec("c", access=access))
        windows = windows_of()
        assert windows["a"] == (0, 8)
        start_b, size_b = windows["b"]
        start_c, size_c = windows["c"]
        assert start_b == 8 and start_c == 8 + size_b
        assert size_b == size_c == (logical - 8) // 2

    @pytest.mark.parametrize("access", ["volume", "dvol"])
    def test_overcommitted_windows_rejected(self, access):
        with pytest.raises(SpecError, match="logical"):
            self._windowed(access, TenantSpec(
                "a", access=access, addr_space=2 * GEO.pages_per_node))

    def test_raw_random_writer_raises_when_space_exhausted(self):
        # A raw writer that programs its whole window must fail with a
        # clear SpecError, not livelock redrawing indices (and not die
        # later inside a chip with an opaque ProgramError).
        spec = ScenarioSpec(
            name="raw-exhaust", geometry=GEO, timing=FAST,
            workload=WorkloadSpec(
                duration_ns=50_000_000, drain=True,
                tenants=(TenantSpec("host", access="host", workers=1,
                                    pattern="random", write_fraction=1.0,
                                    addr_space=8, software_path=False,
                                    seed_base=1),)))
        with pytest.raises(SpecError, match="wrote all 8 pages"):
            Session(spec).run()

    def test_raw_sequential_writer_raises_on_wrap(self):
        spec = ScenarioSpec(
            name="raw-wrap", geometry=GEO, timing=FAST,
            workload=WorkloadSpec(
                duration_ns=50_000_000, drain=True,
                tenants=(TenantSpec("host", access="host", workers=1,
                                    pattern="sequential",
                                    write_fraction=1.0, addr_space=8,
                                    software_path=False,
                                    seed_base=1),)))
        with pytest.raises(SpecError,
                           match="cannot reprogram without an erase"):
            Session(spec).run()

    def test_volume_tenant_qos_programs_its_own_port(self):
        # Port-level QoS on a volume tenant is legal (dedicated port).
        spec = volume_spec()
        tenant = dataclasses.replace(spec.workload.tenants[0],
                                     priority=2, max_in_flight=4)
        session = Session(dataclasses.replace(
            spec, workload=dataclasses.replace(spec.workload,
                                               tenants=(tenant,))))
        port = session._ifaces["vol"].port
        assert port.priority == 2
        assert port.max_in_flight == 4
