"""``repro.faults``: deterministic injection, recovery, wear leveling.

Layer by layer:

* :class:`~repro.faults.FaultPlan` — every decision is a pure hash of
  (seed, operation identity): hypothesis pins that schedules are
  identical across plan instances and query orders, and that the rate
  knobs bound them;
* :class:`~repro.faults.FaultInjector` — per-block read ordinals, the
  burst window, chip death, and the counters the metrics layer reads;
* :class:`~repro.flash.WearTracker` — erase-count spread and per-chip
  summaries;
* ``FaultSpec`` — validation, dict/JSON round-trips, the
  ``--fault-seed`` override;
* the write path end-to-end — verify-after-write recovery, suspect
  retirement, erase-failure retirement, and rerun byte-identity, on
  volumes and on the raw-device shells (driver FTL and RFS).
"""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    FaultSpec,
    ScenarioSpec,
    Session,
    SpecError,
    TenantSpec,
    VolumeSpec,
    WorkloadSpec,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    fault_seed_override,
    set_fault_seed_override,
)
from repro.flash import FlashGeometry, FlashTiming, PhysAddr, WearTracker
from repro.flash.device import StorageDevice
from repro.fs import RFS
from repro.ftl import BlockDeviceFTL
from repro.sim import Simulator

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=16,
                    pages_per_block=4, page_size=64, cards_per_node=1)
FAST = FlashTiming(t_read_ns=1000, t_prog_ns=2000, t_erase_ns=5000,
                   bus_bytes_per_ns=1.0, aurora_bytes_per_ns=3.3,
                   aurora_latency_ns=10, cmd_overhead_ns=10)

_keys = st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 7),
                  st.integers(0, 7), st.integers(0, 63))


# ----------------------------------------------------------------------
# FaultPlan: pure hashed decisions
# ----------------------------------------------------------------------
class TestFaultPlan:
    @given(seed=st.integers(0, 2**32), keys=st.lists(_keys, max_size=20),
           page=st.integers(0, 255), cycle=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_same_seed_same_schedule(self, seed, keys, page, cycle):
        # Two plan instances with one seed agree on every decision, and
        # query order is irrelevant — there is no draw order to leak.
        a = FaultPlan(seed=seed, program_fail_rate=0.5,
                      erase_fail_rate=0.5)
        b = FaultPlan(seed=seed, program_fail_rate=0.5,
                      erase_fail_rate=0.5)
        forward = [a.fails_program(k, page, cycle) for k in keys]
        backward = [b.fails_program(k, page, cycle)
                    for k in reversed(keys)]
        assert forward == list(reversed(backward))
        assert ([a.fails_erase(k, cycle) for k in keys]
                == [b.fails_erase(k, cycle) for k in keys])

    @given(key=_keys, page=st.integers(0, 255), cycle=st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_rates_bound_the_schedule(self, key, page, cycle):
        never = FaultPlan(seed=1, program_fail_rate=0.0)
        always = FaultPlan(seed=1, program_fail_rate=1.0)
        assert not never.fails_program(key, page, cycle)
        assert always.fails_program(key, page, cycle)

    @given(seed=st.integers(0, 2**32), key=_keys,
           cycle=st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_decisions_are_keyed_not_streamed(self, seed, key, cycle):
        # Re-asking the same question always returns the same answer —
        # the property that makes rerun and --jobs N byte-identity
        # possible at all.
        plan = FaultPlan(seed=seed, erase_fail_rate=0.5)
        first = plan.fails_erase(key, cycle)
        for _ in range(3):
            assert plan.fails_erase(key, cycle) == first

    def test_window_gates_bursts(self):
        plan = FaultPlan(seed=2, program_fail_rate=1.0,
                         window_start_ns=100, window_end_ns=200)
        assert not plan.in_window(99)
        assert plan.in_window(100)
        assert plan.in_window(199)
        assert not plan.in_window(200)

    def test_chip_death_is_scoped_and_timed(self):
        plan = FaultPlan(seed=3, fail_chip=(0, 1, 1),
                         fail_chip_after_ns=1000)
        dying = PhysAddr(node=0, card=0, bus=1, chip=1)
        other = PhysAddr(node=0, card=0, bus=0, chip=1)
        assert not plan.chip_dead(dying, 999)
        assert plan.chip_dead(dying, 1000)
        assert not plan.chip_dead(other, 5000)


# ----------------------------------------------------------------------
# FaultInjector: runtime state around the pure plan
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_natural_double_flips_pass_through(self):
        # At 100 % wear this plan makes every read uncorrectable.
        injector = FaultInjector(FaultPlan(seed=4, wear_ber=1.0))
        assert injector.read_flips(PhysAddr(), 1.0, 2) == 2
        # The injector never claims credit for the chip's own errors.
        assert injector.read_uncorrectables == 0

    def test_wear_ber_ramps_from_onset(self):
        plan = FaultPlan(seed=5, wear_ber=1.0, wear_ber_onset=0.5)
        injector = FaultInjector(plan)
        addr = PhysAddr(block=1)
        assert injector.read_flips(addr, 0.49, 0) == 0
        # At 100 % wear the ramp saturates at wear_ber=1.0: certain.
        assert injector.read_flips(addr, 1.0, 0) == 2

    def test_dead_chip_refuses_programs_and_erases_counted(self):
        plan = FaultPlan(seed=6, fail_chip=(0, 0, 0),
                         fail_chip_after_ns=100)
        injector = FaultInjector(plan)
        addr = PhysAddr()
        assert not injector.program_fails(addr, cycle=0, now=50)
        assert injector.program_fails(addr, cycle=0, now=150)
        assert injector.erase_fails(addr, cycle=1, now=150)
        assert injector.chip_refusals == 2


# ----------------------------------------------------------------------
# WearTracker: spread
# ----------------------------------------------------------------------
class TestWearTracker:
    def test_spread_over_touched_blocks(self):
        wear = WearTracker(endurance=100)
        a = PhysAddr(node=0, card=0, bus=0, chip=0, block=0)
        b = PhysAddr(node=0, card=0, bus=1, chip=1, block=2)
        for _ in range(5):
            wear.record_erase(a)
        wear.record_erase(b)
        assert wear.spread() == 4

    def test_untouched_tracker_is_flat(self):
        wear = WearTracker()
        assert wear.spread() == 0


# ----------------------------------------------------------------------
# FaultSpec: validation, round-trips, the --fault-seed override
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_rejects_bad_knobs(self):
        with pytest.raises(SpecError):
            FaultSpec(program_fail_rate=1.5)
        with pytest.raises(SpecError):
            FaultSpec(wear_ber_onset=1.0)
        with pytest.raises(SpecError):
            FaultSpec(window_start_ns=200, window_end_ns=100)
        with pytest.raises(SpecError):
            FaultSpec(fail_chip=(0, 0))
        with pytest.raises(SpecError):
            FaultSpec(wear_leveling="dynamic")
        with pytest.raises(SpecError):
            FaultSpec(endurance=0)

    def test_round_trips_through_dict_and_json(self):
        fault = FaultSpec(seed=9, program_fail_rate=0.1,
                          wear_ber=0.2, fail_chip=(0, 1, 1),
                          wear_leveling="static", endurance=200)
        spec = ScenarioSpec(name="faulty", fault=fault)
        data = json.loads(json.dumps(spec.to_dict()))
        assert data["fault"] == fault.to_dict()
        assert FaultSpec(**dict(data["fault"],
                                fail_chip=(0, 1, 1))) == fault

    def test_build_plan_and_seed_override(self):
        fault = FaultSpec(seed=9, program_fail_rate=0.1)
        assert fault.build_plan().seed == 9
        assert fault.build_plan(seed_override=42).seed == 42

    def test_cli_override_reaches_the_session(self):
        spec = _fault_spec(FaultSpec(seed=1, program_fail_rate=0.05))
        assert fault_seed_override() is None
        set_fault_seed_override(77)
        try:
            session = Session(spec)
            assert session.node.faults.plan.seed == 77
        finally:
            set_fault_seed_override(None)
        assert Session(spec).node.faults.plan.seed == 1


# ----------------------------------------------------------------------
# The write path end-to-end: recovery, retirement, byte-identity
# ----------------------------------------------------------------------
def _fault_spec(fault, duration_ns=1_000_000, **volume_kwargs):
    # Generous over-provisioning: suspect/grown-bad retirement shrinks
    # the pool permanently, and these runs push double-digit failure
    # counts through a 64-block device.
    volume = dict(overprovision=0.4, allocation="sequential",
                  fill=0.6, gc_low_watermark=3, gc_priority=0)
    volume.update(volume_kwargs)
    return ScenarioSpec(
        name="fault-unit", geometry=GEO, timing=FAST,
        splitter_policy="fifo", splitter_in_flight=8,
        volume=VolumeSpec(**volume), fault=fault,
        workload=WorkloadSpec(
            duration_ns=duration_ns, queue_depth=8, drain=True,
            tenants=(TenantSpec("w", access="volume", workers=2,
                                pattern="random", write_fraction=1.0,
                                software_path=False, seed_base=7,
                                max_in_flight=4),)))


class TestWritePathRecovery:
    def test_program_failures_recover_without_loss(self):
        spec = _fault_spec(FaultSpec(seed=11, program_fail_rate=0.05))
        session = Session(spec)
        result = session.run()
        rel = result.metrics["volume"][0]["reliability"]
        faults = result.metrics["faults"][0]
        assert faults["program_failures"] > 0
        assert rel["recovered_writes"] >= faults["program_failures"]
        assert rel["lost_pages"] == 0
        # Every acknowledged write is still readable: the map points at
        # pages whose stored bytes exist.
        volume = session.volumes[0]
        for lpn in range(volume.logical_pages):
            addr = volume.core.map.lookup(lpn)
            if addr is not None:
                assert session.node.device.store.read_data(addr) \
                    is not None

    def test_failed_erases_retire_blocks(self):
        spec = _fault_spec(FaultSpec(seed=12, erase_fail_rate=0.1))
        result = Session(spec).run()
        rel = result.metrics["volume"][0]["reliability"]
        faults = result.metrics["faults"][0]
        assert faults["erase_failures"] > 0
        assert rel["bad_blocks_retired"] >= faults["erase_failures"]
        assert faults["grown_bad_blocks"] >= faults["erase_failures"]
        assert rel["lost_pages"] == 0

    def test_same_seed_reruns_are_byte_identical(self):
        spec = _fault_spec(FaultSpec(seed=13, program_fail_rate=0.02,
                                     erase_fail_rate=0.02))
        first = Session(spec).run().to_json()
        second = Session(spec).run().to_json()
        assert first == second

    def test_different_seeds_differ(self):
        # Not a tautology: if the injector ignored the seed (always-on
        # or never-on), every schedule would collapse to one stream.
        runs = set()
        for seed in (1, 2, 3):
            spec = _fault_spec(FaultSpec(seed=seed,
                                         program_fail_rate=0.05))
            result = Session(spec).run()
            runs.add(result.metrics["faults"][0]["program_failures"])
        assert len(runs) > 1

    def test_static_wear_leveling_migrates_cold_blocks(self):
        fault = FaultSpec(seed=14, wear_leveling="static",
                          wl_spread_threshold=2, endurance=1000)
        spec = dataclasses.replace(
            _fault_spec(fault, duration_ns=4_000_000, fill=1.0),
            workload=WorkloadSpec(
                duration_ns=4_000_000, queue_depth=8, drain=True,
                tenants=(
                    TenantSpec("hot", access="volume", workers=2,
                               pattern="random", write_fraction=1.0,
                               software_path=False, seed_base=7,
                               addr_space=16, max_in_flight=4),
                    TenantSpec("cold", access="volume", workers=1,
                               pattern="random", write_fraction=0.0,
                               software_path=False, seed_base=8,
                               addr_space=64, max_in_flight=2),
                )))
        result = Session(spec).run()
        rel = result.metrics["volume"][0]["reliability"]
        assert rel["wl_migrations"] > 0
        assert rel["lost_pages"] == 0

    def test_ledger_programs_match_the_chips(self, chip_ops):
        # An oracle for the FTL ledger that counts the other way: every
        # program the ledger charges (user writes, relocations by GC
        # and wear leveling, stale copies) completed on a chip exactly
        # once, and no other program did; every victim was erased once;
        # every program the cards saw fail was rewritten.
        fault = FaultSpec(seed=14, program_fail_rate=0.02,
                          wear_leveling="static", wl_spread_threshold=2,
                          endurance=1000)
        spec = dataclasses.replace(
            _fault_spec(fault, duration_ns=4_000_000, fill=1.0),
            workload=WorkloadSpec(
                duration_ns=4_000_000, queue_depth=8, drain=True,
                tenants=(
                    TenantSpec("hot", access="volume", workers=2,
                               pattern="random", write_fraction=1.0,
                               software_path=False, seed_base=7,
                               addr_space=16, max_in_flight=4),
                    TenantSpec("cold", access="volume", workers=1,
                               pattern="random", write_fraction=0.0,
                               software_path=False, seed_base=8,
                               addr_space=64, max_in_flight=2),
                )))
        result = Session(spec).run()
        stats = result.metrics["volume"][0]
        rel = stats["reliability"]
        faults = result.metrics["faults"][0]
        assert stats["gc_runs"] > rel["wl_migrations"] > 0
        assert rel["recovered_writes"] > 0
        assert chip_ops["program"] == stats["total_programs"]
        assert chip_ops["erase"] == stats["gc_runs"]
        assert rel["recovered_writes"] == faults["device_program_failures"]

    def test_chip_evacuation_moves_live_data(self):
        fault = FaultSpec(seed=15, fail_chip=(0, 0, 0),
                          fail_chip_after_ns=500_000)
        spec = _fault_spec(fault, duration_ns=2_000_000)
        session = Session(spec)
        volume = session.volumes[0]

        def evacuation():
            yield session.sim.timeout(500_000)
            yield from volume.core.evacuate_chip(0, 0, 0)

        session.sim.process(evacuation(), name="evacuation")
        result = session.run()
        rel = result.metrics["volume"][0]["reliability"]
        assert rel["chips_evacuated"] == 1
        assert rel["evacuated_pages"] > 0
        assert rel["lost_pages"] == 0
        # The dead chip is out of the allocator: nothing maps there
        # once evacuation finished.
        for lpn in range(volume.logical_pages):
            addr = volume.core.map.lookup(lpn)
            if addr is not None:
                assert (addr.card, addr.bus, addr.chip) != (0, 0, 0)


class TestRawDeviceShellsRecover:
    """The driver FTL and RFS share the volume's program-retry loop: an
    injected program failure is retried on a fresh page, never raised
    to the caller, and the accounting identity still holds."""

    @staticmethod
    def _faulty_device():
        sim = Simulator()
        device = StorageDevice(sim, geometry=GEO, timing=FAST)
        device.install_faults(
            FaultInjector(FaultPlan(seed=21, program_fail_rate=0.02)))
        return sim, device

    @staticmethod
    def _assert_recovered(core):
        assert core.reliability_stats()["recovered_writes"] > 0
        assert len(core.gc_victims) > 0
        stats = core.stats()
        assert stats["total_programs"] == (sum(stats["user_writes"].values())
                                           + stats["gc_moved_pages"]
                                           + stats["gc_stale_moves"])

    def test_block_device_ftl_survives_program_failures(self):
        sim, device = self._faulty_device()
        ftl = BlockDeviceFTL(sim, device, overprovision=0.5)
        n_writes = 3 * GEO.pages_per_node
        rng = random.Random(5)
        latest = {}

        def proc(sim):
            for i in range(n_writes):
                lpn = rng.randrange(ftl.logical_pages)
                data = f"w{i}".encode()
                yield from ftl.write(lpn, data)
                latest[lpn] = data
            readback = {}
            for lpn in latest:
                readback[lpn] = yield from ftl.core.read(
                    lpn, ftl.device.read_page)
            return readback

        readback = sim.run_process(proc(sim))
        assert sum(ftl.core.stats()["user_writes"].values()) == n_writes
        for lpn, data in latest.items():
            assert readback[lpn] == data + b"\xff" * (GEO.page_size
                                                      - len(data))
        self._assert_recovered(ftl.core)

    def test_rfs_survives_program_failures(self):
        sim, device = self._faulty_device()
        fs = RFS(sim, device)
        latest = {}

        def proc(sim):
            for round_no in range(40):
                for f in range(4):
                    body = bytes([round_no, f]) * (2 * GEO.page_size)
                    yield from fs.write_file(f"f{f}", body)
                    latest[f"f{f}"] = body

        sim.run_process(proc(sim))
        for name, body in latest.items():
            stored = b"".join(device.store.read_data(addr)
                              for addr in fs.physical_extents(name))
            assert stored[:fs.stat(name).size] == body
        self._assert_recovered(fs.core)
