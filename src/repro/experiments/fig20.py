"""Figure 20: distributed graph traversal throughput.

Dependent page-chain lookups across a 3-node cluster under the six
access configurations; every configuration must visit the identical
(oracle-verified) vertex sequence.  Each configuration's table row now
carries the unified request tracer's per-lookup mean and p99 next to
the rate (the ROADMAP "p99 columns next to the means" item) — the
traced flash/network accesses behind the lookups, where the
configuration performs any.
"""

from __future__ import annotations

from ..api import BENCH_GEOMETRY, RunResult, ScenarioSpec, Session, \
    experiment
from ..apps import DistributedGraph, GraphTraversal
from ..sim import units

CONFIGS = ["isp-f", "h-f", "h-rh-f", "dram-50f", "dram-30f", "h-dram"]
LABELS = {"isp-f": "ISP-F", "h-f": "H-F", "h-rh-f": "H-RH-F",
          "dram-50f": "50%F", "dram-30f": "30%F", "h-dram": "H-DRAM"}
N_VERTICES = 600
STEPS = 120


def measure(config: str) -> tuple:
    session = Session(ScenarioSpec(name=f"fig20-{config}", n_nodes=3,
                                   geometry=BENCH_GEOMETRY))
    sim = session.sim
    graph = DistributedGraph(session.cluster, N_VERTICES, avg_degree=6,
                             seed=13)
    traversal = GraphTraversal(graph, home_node=0, seed=13)

    def proc(sim):
        rate, path = yield from traversal.run(config, 1, STEPS)
        return rate, path

    rate, path = sim.run_process(proc(sim))
    assert path == graph.reference_walk(1, STEPS), config
    overall = session.tracer.overall_latency()
    return rate, overall


@experiment("fig20", title="distributed graph traversal",
            produces="benchmarks/test_fig20_graph.py",
            label="Figure 20")
def run_fig20() -> RunResult:
    measured = {config: measure(config) for config in CONFIGS}
    rates = {config: rate for config, (rate, _) in measured.items()}

    result = RunResult("fig20")
    result.metrics["rates"] = rates
    result.metrics["traced"] = {
        config: {"count": overall.count,
                 "mean_ns": overall.mean,
                 "p99_ns": overall.percentile(99)}
        for config, (_, overall) in measured.items()}
    rows = []
    for config in CONFIGS:
        rate, overall = measured[config]
        traced = overall.count > 0
        rows.append([
            LABELS[config], round(rate),
            f"{units.to_us(overall.mean):.0f}" if traced else "-",
            f"{units.to_us(overall.percentile(99)):.0f}" if traced
            else "-",
        ])
    result.add_table(
        "fig20_graph",
        "Figure 20: graph traversal performance "
        "(paper shape: ISP-F ~3x H-RH-F, ISP-F > 50%F, "
        "H-DRAM best software config; mean/p99 = traced flash/network "
        "accesses, '-' = configuration traces none)",
        ["Access Type", "Lookups/s", "mean (us)", "p99 (us)"],
        rows)
    return result
