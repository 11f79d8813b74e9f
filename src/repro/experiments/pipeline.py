"""Batched/async submission experiments: queue-depth sweep + coalescing.

Two registered extensions probe the asynchronous request path this
repo grew on top of the paper's card:

* ``qd_sweep`` — one closed-loop host worker keeps the
  :class:`~repro.api.Session` window at queue depths 1→64.
  Single-command latency is ~50 µs, so bandwidth at depth 1 is a small
  fraction of the card's; it must rise monotonically with depth until
  the PCIe/flash ceiling saturates — the paper's "multiple commands
  must be in flight to saturate the device" in one figure.
* ``batching`` — splitter-admission coalescing on/off under a
  sequential and a random tenant at queue depth 16 with an 8-slot port
  cap.  Sequential windows merge into ~8-page commands (one slot, one
  admission grant, one command setup per run), multiplying the pages in
  flight past the slot cap; random traffic almost never merges and
  must stay bit-identical to the coalescing-off path.

Both sweeps run their points through
:func:`~repro.parallel.parallel_map`: each point is a top-level pure
function building its own :class:`~repro.api.Session` from primitives,
so ``jobs=N`` fans the sweep across worker processes with results
byte-identical to the serial run.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..api import (
    BENCH_GEOMETRY,
    RunResult,
    ScenarioSpec,
    Session,
    TenantSpec,
    WorkloadSpec,
    experiment,
)
from ..parallel import parallel_map
from ..sim import units

# -- qd_sweep ----------------------------------------------------------
QD_VALUES = (1, 2, 4, 8, 16, 32, 64)
QD_WINDOW_NS = 2_500_000


def qd_sweep_spec(queue_depth: int,
                  duration_ns: int = QD_WINDOW_NS) -> ScenarioSpec:
    """One kernel-bypass host worker at the given queue depth."""
    return ScenarioSpec(
        name=f"qd-sweep-{queue_depth}", geometry=BENCH_GEOMETRY,
        workload=WorkloadSpec(
            duration_ns=duration_ns, queue_depth=queue_depth,
            tenants=(TenantSpec("host", access="host", workers=1,
                                software_path=False, seed_base=7),)))


def qd_sweep_point(args: Tuple[int, int]) -> RunResult:
    """One sweep point: ``(queue_depth, duration_ns)`` -> session run."""
    queue_depth, duration_ns = args
    return Session(qd_sweep_spec(queue_depth, duration_ns)).run()


@experiment("qd_sweep", title="bandwidth vs host queue depth (1..64)",
            produces="benchmarks/test_qd_sweep.py", label="QD-sweep")
def run_qd_sweep(jobs: int = 1,
                 depths: Sequence[int] = QD_VALUES,
                 window_ns: int = QD_WINDOW_NS) -> RunResult:
    result = RunResult("qd_sweep")
    page = BENCH_GEOMETRY.page_size
    runs = parallel_map(qd_sweep_point,
                        [(depth, window_ns) for depth in depths],
                        jobs=jobs)
    depths_out, bandwidths, iops, means = [], [], [], []
    measured: Dict[int, dict] = {}
    rows = []
    for depth, run in zip(depths, runs):
        stats = run.tenant_stats["host"]
        bandwidth = stats["completed"] * page / window_ns
        depths_out.append(depth)
        bandwidths.append(bandwidth)
        iops.append(stats["iops"])
        means.append(stats["mean_ns"])
        measured[depth] = dict(stats, bandwidth_gbs=bandwidth)
        rows.append([depth, f"{stats['completed']:.0f}",
                     f"{stats['iops'] / 1000:.1f}",
                     f"{bandwidth:.2f}",
                     f"{units.to_us(stats['mean_ns']):.0f}",
                     f"{units.to_us(stats['p99_ns']):.0f}"])
    result.series["queue_depth"] = depths_out
    result.series["bandwidth_gbs"] = bandwidths
    result.series["iops"] = iops
    result.series["mean_ns"] = means
    result.metrics["by_depth"] = measured
    result.metrics["window_ns"] = window_ns
    result.elapsed_ns = sum(run.elapsed_ns for run in runs)
    result.add_table(
        "qd_sweep",
        "Queue-depth sweep: one closed-loop host worker, async batched "
        "submission (bandwidth rises with depth until PCIe/flash "
        "saturates; depth 1 is the seed's synchronous loop)",
        ["QD", "Done", "kIOPS", "GB/s", "mean(us)", "p99(us)"],
        rows)
    return result


# -- batching ----------------------------------------------------------
BATCHING_WINDOW_NS = 2_500_000
BATCHING_QD = 16
BATCHING_WORKERS = 4
BATCHING_SLOTS = 8
BATCHING_MAX_PAGES = 8


def batching_spec(pattern: str, coalesce: bool,
                  duration_ns: int = BATCHING_WINDOW_NS) -> ScenarioSpec:
    """Four ISP readers at qd 16 behind an 8-slot port cap."""
    return ScenarioSpec(
        name=f"batching-{pattern}-{'on' if coalesce else 'off'}",
        geometry=BENCH_GEOMETRY, coalesce=coalesce,
        coalesce_max_pages=BATCHING_MAX_PAGES,
        workload=WorkloadSpec(
            duration_ns=duration_ns, queue_depth=BATCHING_QD,
            tenants=(TenantSpec("isp", access="isp",
                                workers=BATCHING_WORKERS,
                                max_in_flight=BATCHING_SLOTS,
                                pattern=pattern, seed_base=3),)))


def batching_point(args: Tuple[str, bool, int]) -> RunResult:
    """One point: ``(pattern, coalesce, duration_ns)`` -> session run."""
    pattern, coalesce, duration_ns = args
    return Session(batching_spec(pattern, coalesce, duration_ns)).run()


@experiment("batching",
            title="splitter coalescing: sequential vs random tenants",
            produces="benchmarks/test_batching.py", label="Batching")
def run_batching(jobs: int = 1,
                 window_ns: int = BATCHING_WINDOW_NS) -> RunResult:
    result = RunResult("batching")
    page = BENCH_GEOMETRY.page_size
    points = [(pattern, coalesce, window_ns)
              for pattern in ("sequential", "random")
              for coalesce in (False, True)]
    runs = parallel_map(batching_point, points, jobs=jobs)
    measured: Dict[str, dict] = {}
    rows = []
    for (pattern, coalesce, _), run in zip(points, runs):
        stats = run.tenant_stats["isp"]
        bandwidth = stats["completed"] * page / window_ns
        co = (run.metrics.get("coalescing", {})
              .get(0, {}).get("isp", {}))
        key = f"{pattern}-{'on' if coalesce else 'off'}"
        measured[key] = {
            "tenant": dict(stats), "bandwidth_gbs": bandwidth,
            "coalescing": co,
        }
        rows.append([
            pattern, "on" if coalesce else "off",
            f"{stats['completed']:.0f}",
            f"{bandwidth:.2f}",
            f"{units.to_us(stats['mean_ns']):.0f}",
            f"{units.to_us(stats['p99_ns']):.0f}",
            f"{co['pages_per_command']:.1f}" if co else "-",
        ])
    result.metrics["scenarios"] = measured
    result.metrics["window_ns"] = window_ns
    result.metrics["queue_depth"] = BATCHING_QD
    result.metrics["max_pages"] = BATCHING_MAX_PAGES
    result.elapsed_ns = sum(run.elapsed_ns for run in runs)
    result.add_table(
        "batching",
        "Admission coalescing: 4 ISP readers, qd 16, 8-slot port cap "
        "(sequential windows merge into ~8-page commands — lower "
        "per-page latency, higher bandwidth; random traffic is "
        "untouched)",
        ["Pattern", "Coalesce", "Done", "GB/s", "mean(us)", "p99(us)",
         "pages/cmd"],
        rows)
    return result
