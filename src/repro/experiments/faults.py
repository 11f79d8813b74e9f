"""Reliability experiments: fault injection, wear-out lifetime, chip loss.

Three registered scenario families exercise :mod:`repro.faults` end to
end — the paper's firmware premise that NAND "has limited program/erase
cycles and frequent errors" (Section 3.1) only disappears because the
management stack hides it:

* ``lifetime`` — TBW until the first unrecoverable page loss, per
  wear-leveling policy.  A hot random-overwrite tenant churns a small
  window while a cold tenant's prefilled data pins its blocks; with
  least-erased-first allocation alone the hot pool burns through its
  (deliberately tiny) endurance and wear-out reads start failing, while
  static wear leveling migrates cold blocks into circulation and
  extends the written-bytes-to-first-loss.
* ``fault_storm`` — a mid-run burst of injected program/erase failures
  under each admission policy.  The volume write path verifies,
  rewrites and retires suspect blocks: recovered writes > 0, lost
  pages = 0 (no acknowledged write is ever lost), and the victim
  reader's p99 shows what the recovery traffic costs under each QoS
  discipline.
* ``chip_loss`` — one chip dies mid-run (programs/erases refuse, reads
  still work).  With evacuation, GC relocates the chip's live pages
  onto the survivors under load; without it, the dead chip's blocks
  retire one by one as writes trip over them.  Either way no
  acknowledged data is lost.

Every scenario is a pure function of primitives, so the sweeps run
through :func:`~repro.parallel.parallel_map` byte-identically at any
``jobs=N``.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..api import (
    FaultSpec,
    RunResult,
    ScenarioSpec,
    Session,
    TenantSpec,
    VolumeSpec,
    WorkloadSpec,
    experiment,
)
from ..flash import FlashGeometry, FlashTiming
from ..parallel import parallel_map
from ..sim import units
from .volume import GC_GEOMETRY, GC_POLICIES, GC_TIMING

# -- lifetime ----------------------------------------------------------
#: A deliberately small, fast device so blocks wear out within a
#: milliseconds-scale window (the ratio, not the absolute, is what the
#: experiment measures): 64 blocks of 8 pages, with program/erase times
#: shrunk so the hot pool turns over its rated cycles in ~tens of ms.
LIFETIME_GEOMETRY = FlashGeometry(buses_per_card=4, chips_per_bus=2,
                                  blocks_per_chip=8, pages_per_block=8,
                                  page_size=8192, cards_per_node=1)
LIFETIME_TIMING = FlashTiming(t_read_ns=20_000, t_prog_ns=25_000,
                              t_erase_ns=30_000)
#: Deliberately tiny rated endurance; wear-out reads ramp to certain
#: failure from 40 % of the rated cycles, so losses appear well before
#: natural end-of-life erase failures shrink the pool.
LIFETIME_ENDURANCE = 12
LIFETIME_WEAR_BER = 1.0
LIFETIME_WEAR_ONSET = 0.4
LIFETIME_WL_THRESHOLD = 4
LIFETIME_DURATION_NS = 55_000_000
#: Hot window (random overwrites) and cold window (prefilled, read-only)
#: of the 384-page logical space: the cold data pins ~40 of the 64
#: physical blocks, concentrating churn on the remaining ~24.
LIFETIME_HOT_SPAN = 64
LIFETIME_COLD_SPAN = 256
WEAR_LEVELING_POLICIES = ("none", "static")


def lifetime_spec(wear_leveling: str,
                  duration_ns: int = LIFETIME_DURATION_NS) -> ScenarioSpec:
    """Hot overwrite churn + pinned cold data on a short-lived device."""
    return ScenarioSpec(
        name=f"lifetime-{wear_leveling}",
        geometry=LIFETIME_GEOMETRY, timing=LIFETIME_TIMING,
        splitter_policy="fifo", splitter_in_flight=8,
        volume=VolumeSpec(overprovision=0.25, allocation="sequential",
                          fill=1.0, gc_low_watermark=6, gc_priority=0),
        fault=FaultSpec(seed=101, wear_ber=LIFETIME_WEAR_BER,
                        wear_ber_onset=LIFETIME_WEAR_ONSET,
                        endurance=LIFETIME_ENDURANCE,
                        wear_leveling=wear_leveling,
                        wl_spread_threshold=LIFETIME_WL_THRESHOLD),
        workload=WorkloadSpec(
            duration_ns=duration_ns, queue_depth=8,
            tenants=(
                TenantSpec("hot", access="volume", workers=4,
                           pattern="random", write_fraction=0.8,
                           software_path=False, seed_base=23,
                           addr_space=LIFETIME_HOT_SPAN, max_in_flight=8),
                TenantSpec("cold", access="volume", workers=1,
                           pattern="random", write_fraction=0.0,
                           software_path=False, seed_base=41,
                           addr_space=LIFETIME_COLD_SPAN,
                           max_in_flight=2),
            )))


def lifetime_point(args: Tuple[str, int]) -> RunResult:
    """One point: ``(wear_leveling, duration_ns)`` -> session run."""
    wear_leveling, duration_ns = args
    return Session(lifetime_spec(wear_leveling, duration_ns)).run()


@experiment("lifetime",
            title="TBW to first loss: static wear leveling vs none",
            produces="benchmarks/test_lifetime.py",
            label="Lifetime")
def run_lifetime(jobs: int = 1,
                 duration_ns: int = LIFETIME_DURATION_NS) -> RunResult:
    result = RunResult("lifetime")
    page = LIFETIME_GEOMETRY.page_size
    points = [(policy, duration_ns) for policy in WEAR_LEVELING_POLICIES]
    runs = parallel_map(lifetime_point, points, jobs=jobs)
    measured: Dict[str, dict] = {}
    rows = []
    for (policy, _), run in zip(points, runs):
        rel = run.metrics["volume"][0]["reliability"]
        writes = run.metrics["completions"]["hot"]
        first = rel["first_loss_user_writes"]
        tbw = None if first is None else first * page
        measured[policy] = {
            "reliability": dict(rel),
            "faults": run.metrics["faults"][0],
            "writes": writes,
            "tbw_to_first_loss_bytes": tbw,
            "elapsed_ns": run.elapsed_ns,
        }
        rows.append([
            policy,
            f"{rel['wl_migrations']}",
            f"{run.metrics['faults'][0]['wear_max']}",
            f"{rel['lost_pages']}",
            "-" if first is None else f"{first}",
            "survived" if tbw is None else f"{tbw / 1e6:.1f}",
        ])
    none_first = measured["none"]["reliability"]["first_loss_user_writes"]
    static_first = (measured["static"]["reliability"]
                    ["first_loss_user_writes"])
    result.metrics["policies"] = measured
    result.metrics["endurance"] = LIFETIME_ENDURANCE
    # Lifetime extension: pages written before the first loss, static
    # over none (survived-the-window counts as the full run's writes).
    none_tbw = (none_first if none_first is not None
                else measured["none"]["writes"])
    static_tbw = (static_first if static_first is not None
                  else measured["static"]["writes"])
    result.metrics["tbw_extension"] = (static_tbw / none_tbw
                                       if none_tbw else None)
    result.elapsed_ns = sum(run.elapsed_ns for run in runs)
    result.add_table(
        "lifetime",
        "Written pages until the first unrecoverable loss on a device "
        f"rated {LIFETIME_ENDURANCE} P/E cycles: cold data pins blocks, "
        "so least-erased-first alone burns out the hot pool; static "
        "wear leveling migrates cold blocks into circulation",
        ["WearLeveling", "WLmoves", "MaxPE", "Lost",
         "WritesAtFirstLoss", "TBW(MB)"],
        rows)
    return result


# -- fault_storm -------------------------------------------------------
FAULT_STORM_DURATION_NS = 30_000_000
FAULT_STORM_WINDOW = (10_000_000, 20_000_000)
FAULT_STORM_PROGRAM_RATE = 0.10
FAULT_STORM_ERASE_RATE = 0.05
FAULT_STORM_FILL = 0.75


def fault_storm_spec(policy: str,
                     duration_ns: int = FAULT_STORM_DURATION_NS
                     ) -> ScenarioSpec:
    """The ``gc_steady`` contention mix plus a mid-run failure burst.

    A random-overwrite volume writer churns a 75 %-full volume while a
    QoS-protected reader measures victim p99; between 10 ms and 20 ms
    every program fails with p=0.1 and every erase with p=0.05.  The
    write path's verify-rewrite-retire recovery is the thing under
    test: no acknowledged write may be lost, at any admission policy.
    """
    return ScenarioSpec(
        name=f"fault-storm-{policy}",
        geometry=GC_GEOMETRY, timing=GC_TIMING,
        splitter_policy=policy, splitter_in_flight=8,
        coalesce=True, coalesce_max_pages=8,
        volume=VolumeSpec(overprovision=0.25, allocation="sequential",
                          fill=FAULT_STORM_FILL, gc_low_watermark=12,
                          gc_priority=0, gc_weight=0.5,
                          gc_rate_mbps=200.0),
        fault=FaultSpec(seed=57,
                        program_fail_rate=FAULT_STORM_PROGRAM_RATE,
                        erase_fail_rate=FAULT_STORM_ERASE_RATE,
                        window_start_ns=FAULT_STORM_WINDOW[0],
                        window_end_ns=FAULT_STORM_WINDOW[1]),
        workload=WorkloadSpec(
            duration_ns=duration_ns, queue_depth=16, drain=True,
            tenants=(
                TenantSpec("writer", access="volume", workers=2,
                           pattern="random", write_fraction=1.0,
                           software_path=False, seed_base=17,
                           weight=2.0, max_in_flight=8),
                TenantSpec("isp", access="isp", workers=2, rng="shared",
                           addr_space=64, max_in_flight=8, priority=2,
                           weight=4.0, deadline_ns=500 * units.US),
            )))


def fault_storm_point(args: Tuple[str, int]) -> RunResult:
    """One point: ``(policy, duration_ns)`` -> session run."""
    policy, duration_ns = args
    return Session(fault_storm_spec(policy, duration_ns)).run()


@experiment("fault_storm",
            title="victim p99 through a program/erase failure burst",
            produces="benchmarks/test_fault_storm.py",
            label="Fault-storm")
def run_fault_storm(jobs: int = 1,
                    policies: Sequence[str] = GC_POLICIES,
                    duration_ns: int = FAULT_STORM_DURATION_NS
                    ) -> RunResult:
    result = RunResult("fault_storm")
    points = [(policy, duration_ns) for policy in policies]
    runs = parallel_map(fault_storm_point, points, jobs=jobs)
    measured: Dict[str, dict] = {}
    rows = []
    for (policy, _), run in zip(points, runs):
        victim = run.tenant_stats["isp"]
        rel = run.metrics["volume"][0]["reliability"]
        faults = run.metrics["faults"][0]
        measured[policy] = {
            "victim": dict(victim),
            "reliability": dict(rel),
            "faults": dict(faults),
            "writes": run.metrics["completions"]["writer"],
            "elapsed_ns": run.elapsed_ns,
        }
        rows.append([
            policy,
            f"{faults['program_failures']}",
            f"{faults['erase_failures']}",
            f"{rel['recovered_writes']}",
            f"{rel['bad_blocks_retired']}",
            f"{rel['lost_pages']}",
            f"{run.metrics['completions']['writer']}",
            f"{units.to_us(victim['p99_ns']):.0f}",
        ])
    result.metrics["policies"] = measured
    result.metrics["storm_window_ns"] = list(FAULT_STORM_WINDOW)
    result.metrics["program_fail_rate"] = FAULT_STORM_PROGRAM_RATE
    result.metrics["erase_fail_rate"] = FAULT_STORM_ERASE_RATE
    result.elapsed_ns = sum(run.elapsed_ns for run in runs)
    result.add_table(
        "fault_storm",
        "A 10 ms program/erase failure burst mid-run: the volume write "
        "path verifies, rewrites to fresh pages and retires suspect "
        "blocks — zero acknowledged writes lost — while the victim "
        "reader's p99 prices the recovery traffic under each policy",
        ["Policy", "ProgFail", "EraseFail", "Recovered", "Retired",
         "Lost", "Writes", "Victim p99(us)"],
        rows)
    return result


# -- chip_loss ---------------------------------------------------------
CHIP_LOSS_DURATION_NS = 30_000_000
CHIP_LOSS_AFTER_NS = 10_000_000
#: The dying chip: card 0, bus 0, chip 0 — in the thick of the striped
#: rotation, so live data is guaranteed to be on it when it dies.
CHIP_LOSS_CHIP = (0, 0, 0)


def chip_loss_spec(evacuate: bool,
                   duration_ns: int = CHIP_LOSS_DURATION_NS
                   ) -> ScenarioSpec:
    """A mixed read/write volume tenant; one chip dies at 10 ms."""
    return ScenarioSpec(
        name=f"chip-loss-{'evac' if evacuate else 'limp'}",
        geometry=GC_GEOMETRY, timing=GC_TIMING,
        splitter_policy="fifo", splitter_in_flight=8,
        volume=VolumeSpec(overprovision=0.25, allocation="sequential",
                          fill=0.6, gc_low_watermark=12, gc_priority=0),
        fault=FaultSpec(seed=91, fail_chip=CHIP_LOSS_CHIP,
                        fail_chip_after_ns=CHIP_LOSS_AFTER_NS),
        workload=WorkloadSpec(
            duration_ns=duration_ns, queue_depth=8, drain=True,
            tenants=(
                TenantSpec("mix", access="volume", workers=4,
                           pattern="random", write_fraction=0.5,
                           software_path=False, seed_base=29,
                           max_in_flight=8),
            )))


def chip_loss_point(args: Tuple[bool, int]) -> RunResult:
    """One point: ``(evacuate, duration_ns)`` -> session run.

    With ``evacuate`` the driver reacts to the failure: at the chip's
    death time it pulls the chip from allocation and GC-relocates its
    live pages block by block (interleaving with foreground traffic —
    the volume releases its allocation slot between blocks).  Without
    it, the FTL limps: writes that land on the dead chip fail, recover
    to fresh pages and retire the block as suspect.
    """
    evacuate, duration_ns = args
    session = Session(chip_loss_spec(evacuate, duration_ns))
    if evacuate:
        volume = session.volumes[0]
        card, bus, chip = CHIP_LOSS_CHIP

        def evacuation():
            yield session.sim.timeout(CHIP_LOSS_AFTER_NS)
            yield from volume.core.evacuate_chip(card, bus, chip)

        session.sim.process(evacuation(), name="chip-evacuation")
    return session.run()


@experiment("chip_loss",
            title="whole-chip death: evacuation vs limp-along",
            produces="benchmarks/test_chip_loss.py",
            label="Chip-loss")
def run_chip_loss(jobs: int = 1,
                  duration_ns: int = CHIP_LOSS_DURATION_NS) -> RunResult:
    result = RunResult("chip_loss")
    points = [(evacuate, duration_ns) for evacuate in (True, False)]
    runs = parallel_map(chip_loss_point, points, jobs=jobs)
    measured: Dict[str, dict] = {}
    rows = []
    for (evacuate, _), run in zip(points, runs):
        key = "evacuate" if evacuate else "limp"
        tenant = run.tenant_stats["mix"]
        rel = run.metrics["volume"][0]["reliability"]
        faults = run.metrics["faults"][0]
        measured[key] = {
            "tenant": dict(tenant),
            "reliability": dict(rel),
            "faults": dict(faults),
            "completions": run.metrics["completions"]["mix"],
            "elapsed_ns": run.elapsed_ns,
        }
        rows.append([
            key,
            f"{rel['chips_evacuated']}",
            f"{rel['evacuated_pages']}",
            f"{faults['chip_refusals']}",
            f"{rel['recovered_writes']}",
            f"{rel['lost_pages']}",
            f"{run.metrics['completions']['mix']}",
            f"{units.to_us(tenant['p99_ns']):.0f}",
        ])
    result.metrics["scenarios"] = measured
    result.metrics["fail_chip"] = list(CHIP_LOSS_CHIP)
    result.metrics["fail_after_ns"] = CHIP_LOSS_AFTER_NS
    result.elapsed_ns = sum(run.elapsed_ns for run in runs)
    result.add_table(
        "chip_loss",
        "One of 8 chips refuses programs/erases from 10 ms (reads keep "
        "working — stored charge survives).  Evacuation GC-relocates "
        "its live pages onto the survivors under load; limping along "
        "retires its blocks as writes trip over them.  Zero "
        "acknowledged losses either way",
        ["Mode", "ChipsEvac", "PagesEvac", "Refusals", "Recovered",
         "Lost", "Done", "p99(us)"],
        rows)
    return result
