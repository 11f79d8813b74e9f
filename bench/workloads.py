"""The benchmark's four workloads: functions returning ``ScenarioSpec``s.

Every workload runs at queue depth 16 with ``drain=True`` so each
issued request completes inside the run.  ``seed`` shifts every random
stream the spec owns (``WorkloadSpec.seed``, each
``TenantSpec.seed_base``, ``FaultSpec.seed``); the dvol placement hash
seed is machine configuration and stays fixed.  ``scale`` multiplies
the simulated duration only, so a shortened run exercises the same
machine and the same mix.

Why each workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from repro.api import (
    BENCH_GEOMETRY,
    DistributedVolumeSpec,
    FaultSpec,
    ScenarioSpec,
    TenantSpec,
    TopologySpec,
    VolumeSpec,
    WorkloadSpec,
)
from repro.flash import FlashGeometry, FlashTiming
from repro.network import NetworkConfig

MS = 1_000_000
QUEUE_DEPTH = 16
#: Worker ``i`` of a tenant draws from ``Random(seed_base + i)``; shifting
#: by a stride wider than any worker count keeps seeds' streams apart.
SEED_STRIDE = 1000

#: The gc_steady machine (repro.experiments.volume) with 64 blocks per
#: chip: 8 chips x 64 blocks x 8 pages = 4096 pages.  Defined here, not
#: imported, so retuning an experiment never moves the benchmark.
GC_GEOMETRY = FlashGeometry(buses_per_card=4, chips_per_bus=2,
                            blocks_per_chip=64, pages_per_block=8,
                            page_size=8192, cards_per_node=1)
#: gc_steady's scaled timing: 8-page blocks erase in 3 ms x 8/256.
GC_TIMING = FlashTiming(t_prog_ns=100_000, t_erase_ns=93_750)

#: Simulated durations at ``scale=1``, the sizes the workloads were
#: designed at (each ~10 s of host time on a 2-core x86 box).
DURATION_NS = {
    "scan_read": 500 * MS,
    "gc_churn": 4000 * MS,
    "open_loop_isp": 800 * MS,
    "dvol_mixed": 160 * MS,
}

#: The simulated-time window of gc_churn's program-failure burst.  A
#: constant rate retires blocks until GC runs out of space, so the burst
#: is confined to a window early in the run.
FAULT_WINDOW_NS = (200 * MS, 300 * MS)


def _duration(name: str, scale: float) -> int:
    return max(1, round(DURATION_NS[name] * scale))


def scan_read(seed: int = 0, scale: float = 1.0) -> ScenarioSpec:
    """Four sequential volume readers over a fully prefilled volume."""
    return ScenarioSpec(
        name="scan_read", geometry=BENCH_GEOMETRY,
        coalesce=True, coalesce_max_pages=8,
        volume=VolumeSpec(overprovision=0.25, allocation="sequential",
                          fill=1.0),
        workload=WorkloadSpec(
            duration_ns=_duration("scan_read", scale),
            queue_depth=QUEUE_DEPTH, drain=True, seed=1000 + seed,
            tenants=(TenantSpec("scan", access="volume", workers=4,
                                max_in_flight=8, pattern="sequential",
                                software_path=False,
                                seed_base=5 + SEED_STRIDE * seed),)))


def gc_churn(seed: int = 0, scale: float = 1.0) -> ScenarioSpec:
    """Random 80%-write volume churn with a program-failure burst."""
    return ScenarioSpec(
        name="gc_churn", geometry=GC_GEOMETRY, timing=GC_TIMING,
        splitter_policy="wfq", splitter_in_flight=8,
        coalesce=True, coalesce_max_pages=8,
        volume=VolumeSpec(overprovision=0.25, allocation="sequential",
                          fill=0.9, gc_low_watermark=12, gc_priority=0,
                          gc_weight=0.5),
        fault=FaultSpec(seed=57 + seed, program_fail_rate=0.05,
                        window_start_ns=FAULT_WINDOW_NS[0],
                        window_end_ns=FAULT_WINDOW_NS[1]),
        workload=WorkloadSpec(
            duration_ns=_duration("gc_churn", scale),
            queue_depth=QUEUE_DEPTH, drain=True, seed=2000 + seed,
            tenants=(TenantSpec("churn", access="volume", workers=4,
                                pattern="random", write_fraction=0.8,
                                software_path=False, max_in_flight=8,
                                seed_base=17 + SEED_STRIDE * seed),)))


def open_loop_isp(seed: int = 0, scale: float = 1.0) -> ScenarioSpec:
    """Poisson arrivals at 200k req/s on the ISP path, 1-in-8 traced."""
    return ScenarioSpec(
        name="open_loop_isp", geometry=BENCH_GEOMETRY,
        coalesce=True, coalesce_max_pages=8, trace_sample=8,
        workload=WorkloadSpec(
            duration_ns=_duration("open_loop_isp", scale),
            queue_depth=QUEUE_DEPTH, drain=True, seed=3000 + seed,
            arrival="poisson", arrival_rate_rps=200_000.0,
            tenants=(TenantSpec("isp", access="isp", workers=1,
                                pattern="random", addr_space=65_536,
                                seed_base=11 + SEED_STRIDE * seed),)))


#: Each dvol tenant's fully prefilled LBA window: every read is served
#: by flash, none is answered from the FTL map alone.
DVOL_TENANT_PAGES = 16_384


def dvol_mixed(seed: int = 0, scale: float = 1.0) -> ScenarioSpec:
    """One 20%-write tenant per node over a 4-shard hashed dvol."""
    nodes = 4
    return ScenarioSpec(
        name="dvol_mixed", n_nodes=nodes, geometry=BENCH_GEOMETRY,
        network=NetworkConfig(max_packet_payload=2048),
        topology=TopologySpec(kind="fully_connected"),
        coalesce=True, coalesce_max_pages=8,
        dvol=DistributedVolumeSpec(
            shards=nodes, placement="hashed", stripe_chunk_pages=8,
            hash_seed=0, remote_coalesce=True,
            remote_coalesce_max_pages=8, remote_in_flight=4,
            volume=VolumeSpec(overprovision=0.25,
                              allocation="sequential", fill=1.0)),
        workload=WorkloadSpec(
            duration_ns=_duration("dvol_mixed", scale),
            queue_depth=QUEUE_DEPTH, drain=True, seed=4000 + seed,
            tenants=tuple(
                TenantSpec(f"mix-n{node}", access="dvol", node=node,
                           workers=2, pattern="random",
                           write_fraction=0.2, software_path=False,
                           addr_space=DVOL_TENANT_PAGES,
                           seed_base=7 + 10 * node + SEED_STRIDE * seed)
                for node in range(nodes))))


SPECS = {
    "scan_read": scan_read,
    "gc_churn": gc_churn,
    "open_loop_isp": open_loop_isp,
    "dvol_mixed": dvol_mixed,
}
