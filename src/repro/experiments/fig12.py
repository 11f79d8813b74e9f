"""Figure 12: latency breakdown of remote 8 KB page access.

Four access paths (ISP-F, H-F, H-RH-F, H-D), each split into software /
storage / data-transfer / network components.  Each path runs under the
unified request tracer: the split is
:meth:`~repro.io.RequestTracer.figure12_components` of the path's first
request's stage ledger, and the traced mean and p99 end-to-end latency
and the per-stage histograms come from all its repetitions.
"""

from __future__ import annotations

from ..api import BENCH_GEOMETRY, RunResult, ScenarioSpec, Session, \
    experiment
from ..flash import PhysAddr
from ..parallel import parallel_map
from ..sim import units

PATHS = ["ISP-F", "H-F", "H-RH-F", "H-D"]
#: Repetitions per path — the breakdown comes from the first (cold,
#: uncontended, deterministic) access; the repetitions feed the traced
#: latency histograms behind the mean/p99 columns.
REPEATS = 16


def measure_path(path: str):
    """Run one access path; return (first request's components, tracer)."""
    session = Session(ScenarioSpec(name=f"fig12-{path}", n_nodes=3,
                                   geometry=BENCH_GEOMETRY))
    sim, cluster, tracer = session.sim, session.cluster, session.tracer
    addr = PhysAddr(node=1, page=3)
    cluster.nodes[1].device.store.program(addr, b"remote page data")
    cluster.nodes[1].dram.store(0, b"remote dram data")
    access = {
        "ISP-F": lambda: cluster.isp_remote_flash(0, addr),
        "H-F": lambda: cluster.host_remote_flash(0, addr),
        "H-RH-F": lambda: cluster.host_remote_via_host(0, addr),
        "H-D": lambda: cluster.host_remote_dram(0, 1, 0),
    }[path]
    # The tracer keeps only aggregates; hold on to the first request.
    first = []
    complete = tracer.complete

    def complete_keeping_first(request):
        if request and not first:
            first.append(request)
        complete(request)

    tracer.complete = complete_keeping_first

    def proc(sim):
        for _ in range(REPEATS):
            yield from access()

    sim.run_process(proc(sim))
    return tracer.figure12_components(first[0]), tracer


def fig12_point(path: str) -> dict:
    """One point: an access-path name -> plain-dict measurement.

    The tracer and request objects stay in the worker; only plain
    picklable numbers cross back to the parent.
    """
    breakdown, tracer = measure_path(path)
    overall = tracer.overall_latency()
    return {
        "metrics": {
            "breakdown": breakdown,
            "total_ns": sum(breakdown.values()),
            "mean_ns": overall.mean,
            "p99_ns": overall.percentile(99),
            "count": overall.count,
            "stages": tracer.stage_summary(),
        },
        "elapsed_ns": tracer.sim.now,
    }


@experiment("fig12", title="remote access latency breakdown",
            produces="benchmarks/test_fig12_latency.py",
            label="Figure 12")
def run_fig12(jobs: int = 1) -> RunResult:
    result = RunResult("fig12")
    rows = []
    runs = parallel_map(fig12_point, PATHS, jobs=jobs)
    for path, run in zip(PATHS, runs):
        metrics = result.metrics[path] = run["metrics"]
        bd = metrics["breakdown"]
        rows.append([
            path,
            f"{units.to_us(bd['software']):.1f}",
            f"{units.to_us(bd['storage']):.1f}",
            f"{units.to_us(bd['transfer']):.1f}",
            f"{units.to_us(bd['network']):.2f}",
            f"{units.to_us(metrics['total_ns']):.1f}",
            f"{units.to_us(metrics['mean_ns']):.1f}",
            f"{units.to_us(metrics['p99_ns']):.1f}",
        ])
    result.elapsed_ns = sum(run["elapsed_ns"] for run in runs)
    result.add_table(
        "fig12_latency_breakdown",
        "Figure 12: latency of remote data access "
        "(paper shape: ISP-F < H-F < H-RH-F; H-D no storage; "
        f"mean/p99 traced over {REPEATS} accesses)",
        ["Access", "Software(us)", "Storage(us)", "Transfer(us)",
         "Network(us)", "Total(us)", "Mean(us)", "p99(us)"],
        rows)
    return result
