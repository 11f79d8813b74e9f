"""QoS extension experiments: scheduler policies under contention.

Three registered scenario families grow the Section 4 "simple
FIFO-based policy" into a QoS story:

* ``qos`` — the original single-node contention scenario: three local
  tenants hammer one splitter under all six disciplines (FIFO,
  round-robin, weighted fair share, token-bucket, strict priority,
  EDF), reported per tenant with mean and p99 from the tracer.
* ``qos_cluster`` — cluster-wide isolation: remote tenants on three
  nodes issue ISP-F reads against *one* node's splitter over the
  integrated storage network.  FIFO equalizes grant counts; weighted
  fair share converges tenant bandwidth to the configured 1:2:3
  weights (within 5%); token buckets cap each tenant at its configured
  rate, never exceeding it by more than one burst.
* ``qos_gc`` — real volume GC under all six disciplines: the
  ``gc_steady`` scenario at fill 0.9 (a random-overwrite volume writer
  whose greedy GC relocates through the ``volume-gc`` port, beside a
  hot-set victim reader), with token-bucket caps on the writer and on
  ``volume-gc``, measuring how far each policy protects the victim's
  p99.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from ..analysis.qos import QOS_POLICIES, QOS_TENANTS, run_policy
from ..api import (
    BENCH_GEOMETRY,
    RunResult,
    ScenarioSpec,
    Session,
    TenantSpec,
    TopologySpec,
    WorkloadSpec,
    experiment,
)
from ..network import NetworkConfig
from ..parallel import parallel_map
from ..sim import units
from .volume import gc_steady_point, gc_steady_spec

DURATION_NS = 20_000_000  # 20 ms of closed-loop hammering


def qos_point(args: Tuple[str, int]) -> dict:
    """One point: ``(policy, duration_ns)`` -> per-tenant summary."""
    policy, duration_ns = args
    tracer = run_policy(policy, BENCH_GEOMETRY, duration_ns)
    return {"tenants": tracer.tenant_summary(tracer.sim.now),
            "elapsed_ns": tracer.sim.now}


@experiment("qos", title="multi-tenant scheduler policies",
            produces="benchmarks/test_qos_multitenant.py",
            label="QoS")
def run_qos(jobs: int = 1,
            duration_ns: int = DURATION_NS) -> RunResult:
    points = [(policy, duration_ns) for policy in QOS_POLICIES]
    runs = parallel_map(qos_point, points, jobs=jobs)
    measured = {policy: run["tenants"]
                for (policy, _), run in zip(points, runs)}

    result = RunResult("qos")
    result.metrics["policies"] = measured
    result.elapsed_ns = sum(run["elapsed_ns"] for run in runs)
    rows = []
    for policy in QOS_POLICIES:
        for tenant in QOS_TENANTS:
            stats = measured[policy][tenant]
            rows.append([
                policy, tenant,
                f"{stats['completed']:.0f}",
                f"{stats['iops'] / 1000:.1f}",
                f"{units.to_us(stats['mean_ns']):.0f}",
                f"{units.to_us(stats['p50_ns']):.0f}",
                f"{units.to_us(stats['p99_ns']):.0f}",
                f"{stats['deadline_misses']:.0f}",
            ])
    result.add_table(
        "qos_multitenant",
        "QoS: per-tenant latency under a 12x aggressor "
        "(admission=8 slots; six policies: rr/wfq/priority/edf bound "
        "victim p99 vs FIFO, token-bucket caps the aggressor's rate)",
        ["Policy", "Tenant", "Done", "kIOPS", "mean(us)", "p50(us)",
         "p99(us)", "Missed"],
        rows)
    return result


# ----------------------------------------------------------------------
# qos_cluster — remote tenants contend for one node's splitter
# ----------------------------------------------------------------------
#: The three policies whose cluster-wide contrast the table shows:
#: FIFO equalizes, wfq follows weights, token-bucket follows rates.
CLUSTER_POLICIES = ["fifo", "wfq", "token-bucket"]
#: source node -> wfq weight (bandwidth shares should converge to
#: 1/6 : 2/6 : 3/6) and token-bucket rate cap in MB/s.
CLUSTER_WEIGHTS = {1: 1.0, 2: 2.0, 3: 3.0}
CLUSTER_RATES_MBPS = {1: 80.0, 2: 160.0, 3: 240.0}
CLUSTER_BURST_KB = 128.0
CLUSTER_DURATION_NS = 16_000_000
CLUSTER_ADMISSION_SLOTS = 8
_CLUSTER_NET = NetworkConfig(max_packet_payload=1024)


def qos_cluster_scenario(policy: str,
                         duration_ns: int = CLUSTER_DURATION_NS
                         ) -> ScenarioSpec:
    """Remote tenants on nodes 1-3 contend for node 0's splitter.

    Each remote node is wired to the target with two parallel serial
    lanes (the Figure 13 ISP-3Nodes wiring, extended to three remotes)
    and runs 24 closed-loop ISP-F readers, so node 0's admission stage
    — not the network — is the bottleneck the policy arbitrates.
    """
    links = tuple((0, remote) for remote in CLUSTER_WEIGHTS
                  for _ in range(2))
    tenants = tuple(
        TenantSpec(f"remote-{remote}", access="remote_isp", node=remote,
                   target=0, workers=24, rng="shared", addr_space=4096,
                   weight=CLUSTER_WEIGHTS[remote],
                   rate_mbps=CLUSTER_RATES_MBPS[remote],
                   burst_kb=CLUSTER_BURST_KB)
        for remote in CLUSTER_WEIGHTS)
    return ScenarioSpec(
        name=f"qos-cluster-{policy}", n_nodes=1 + len(CLUSTER_WEIGHTS),
        geometry=BENCH_GEOMETRY, network=_CLUSTER_NET,
        topology=TopologySpec(kind="custom", links=links), n_endpoints=5,
        splitter_policy=policy,
        splitter_in_flight=CLUSTER_ADMISSION_SLOTS,
        workload=WorkloadSpec(duration_ns=duration_ns, tenants=tenants,
                              seed=1234, drain=True))


def qos_cluster_point(args: Tuple[str, int]) -> RunResult:
    """One point: ``(policy, duration_ns)`` -> session run."""
    policy, duration_ns = args
    return Session(qos_cluster_scenario(policy, duration_ns)).run()


@experiment("qos_cluster",
            title="cluster-wide QoS: remote tenants on one splitter",
            produces="benchmarks/test_qos_cluster_wide.py",
            label="QoS-cluster")
def run_qos_cluster(jobs: int = 1,
                    duration_ns: int = CLUSTER_DURATION_NS) -> RunResult:
    result = RunResult("qos_cluster")
    measured: Dict[str, dict] = {}
    rows = []
    weight_total = sum(CLUSTER_WEIGHTS.values())
    points = [(policy, duration_ns) for policy in CLUSTER_POLICIES]
    runs = parallel_map(qos_cluster_point, points, jobs=jobs)
    for (policy, _), run in zip(points, runs):
        tenants = run.tenant_stats
        total_bytes = sum(s["bytes"] for s in tenants.values())
        policy_stats: Dict[str, dict] = {}
        for remote, weight in CLUSTER_WEIGHTS.items():
            name = f"remote-{remote}"
            stats = tenants[name]
            share = stats["bytes"] / total_bytes if total_bytes else 0.0
            mbps = stats["bytes"] / run.elapsed_ns * 1000
            cap = CLUSTER_RATES_MBPS[remote]
            policy_stats[name] = dict(
                stats, share=share,
                target_share=weight / weight_total,
                mbps=mbps, cap_mbps=cap,
                cap_bytes=(cap * 1e6 * run.elapsed_ns / 1e9
                           + CLUSTER_BURST_KB * 1024))
            rows.append([
                policy, name,
                f"{stats['completed']:.0f}",
                f"{mbps:.0f}",
                f"{share:.3f}",
                f"{weight / weight_total:.3f}",
                f"{cap:.0f}" if policy == "token-bucket" else "-",
                f"{units.to_us(stats['p99_ns']):.0f}",
            ])
        measured[policy] = {
            "tenants": policy_stats,
            "elapsed_ns": run.elapsed_ns,
            "splitter_bandwidth": run.metrics["splitter_bandwidth"],
        }
    result.metrics["policies"] = measured
    result.metrics["weights"] = {f"remote-{r}": w
                                 for r, w in CLUSTER_WEIGHTS.items()}
    result.metrics["rates_mbps"] = {f"remote-{r}": m
                                    for r, m in CLUSTER_RATES_MBPS.items()}
    result.elapsed_ns = sum(run.elapsed_ns for run in runs)
    result.add_table(
        "qos_cluster",
        "Cluster QoS: 3 remote tenants (2 lanes each) on node 0's "
        "splitter over the integrated network (admission=8; wfq shares "
        "follow 1:2:3 weights, token-bucket honors per-tenant caps)",
        ["Policy", "Tenant", "Done", "MB/s", "Share", "Target",
         "Cap(MB/s)", "p99(us)"],
        rows)
    return result


# ----------------------------------------------------------------------
# qos_gc — real volume GC vs victim p99 under each policy
# ----------------------------------------------------------------------
GC_POLICIES = QOS_POLICIES
GC_FILL = 0.9
GC_DURATION_NS = 40_000_000
#: Token-bucket caps.  ``volume-gc``'s 20 MB/s sits below the ~30 MB/s
#: GC moves at fill 0.9, so it binds; the writer's 60 MB/s throttles the
#: user programs that cause most of the victim's interference while
#: still filling the volume to the GC watermark inside the window.
WRITER_RATE_MBPS = 60.0
VOLUME_GC_RATE_MBPS = 20.0
GC_BURST_KB = 64.0


def qos_gc_spec(policy: str,
                duration_ns: int = GC_DURATION_NS) -> ScenarioSpec:
    """``gc_steady`` at fill 0.9 with the writer and ``volume-gc``
    rate-capped (the caps only bind under ``token-bucket``)."""
    spec = gc_steady_spec(policy, GC_FILL, duration_ns)
    tenants = tuple(
        dataclasses.replace(t, rate_mbps=WRITER_RATE_MBPS,
                            burst_kb=GC_BURST_KB)
        if t.name == "writer" else t
        for t in spec.workload.tenants)
    return dataclasses.replace(
        spec, name=f"qos-gc-{policy}",
        volume=dataclasses.replace(spec.volume,
                                   gc_rate_mbps=VOLUME_GC_RATE_MBPS,
                                   gc_burst_kb=GC_BURST_KB),
        workload=dataclasses.replace(spec.workload, tenants=tenants))


def qos_gc_point(args: Tuple[str, int]) -> RunResult:
    """One point: ``(policy, duration_ns)`` -> session run.

    ``policy="baseline"`` is ``gc_steady``'s writer-less reference run
    the p99 ratios compare against.
    """
    policy, duration_ns = args
    if policy == "baseline":
        return gc_steady_point(("baseline", 0.0, duration_ns))
    return Session(qos_gc_spec(policy, duration_ns)).run()


@experiment("qos_gc",
            title="real volume GC vs victim p99 (6 policies)",
            produces="benchmarks/test_qos_gc.py",
            label="QoS-GC")
def run_qos_gc(jobs: int = 1,
               duration_ns: int = GC_DURATION_NS) -> RunResult:
    result = RunResult("qos_gc")
    points = [("baseline", duration_ns)]
    points += [(policy, duration_ns) for policy in GC_POLICIES]
    runs = parallel_map(qos_gc_point, points, jobs=jobs)
    baseline = runs[0]
    baseline_p99 = baseline.tenant_stats["isp"]["p99_ns"]
    result.metrics["baseline"] = {
        "victim": baseline.tenant_stats["isp"],
    }
    measured: Dict[str, dict] = {}
    rows = [["(no writer)",
             f"{baseline.tenant_stats['isp']['completed']:.0f}",
             f"{units.to_us(baseline_p99):.0f}", "1.0", "-", "-", "-",
             "-"]]
    for (policy, _), run in zip(points[1:], runs[1:]):
        victim = run.tenant_stats["isp"]
        volume = run.metrics["volume"][0]
        writes = run.metrics["completions"]["writer"]
        bandwidth = run.metrics["splitter_bandwidth"][0]
        writer_bw = bandwidth["writer"]
        # A window too short to reach the GC watermark has no
        # volume-gc traffic at all.
        gc_bw = bandwidth.get("volume-gc",
                              {"bytes": 0.0, "gbytes_per_sec": 0.0})
        measured[policy] = {
            "victim": victim, "volume": volume, "writes": writes,
            "writer_bandwidth": writer_bw, "gc_bandwidth": gc_bw,
            "elapsed_ns": run.elapsed_ns,
        }
        rows.append([
            policy,
            f"{victim['completed']:.0f}",
            f"{units.to_us(victim['p99_ns']):.0f}",
            f"{victim['p99_ns'] / baseline_p99:.1f}",
            f"{writes}",
            f"{volume['gc_runs']}",
            f"{writer_bw['gbytes_per_sec'] * 1000:.0f}",
            f"{gc_bw['gbytes_per_sec'] * 1000:.0f}",
        ])
    result.metrics["policies"] = measured
    result.metrics["fill"] = GC_FILL
    result.metrics["writer_rate_mbps"] = WRITER_RATE_MBPS
    result.metrics["gc_rate_mbps"] = VOLUME_GC_RATE_MBPS
    result.metrics["gc_burst_kb"] = GC_BURST_KB
    result.elapsed_ns = sum(run.elapsed_ns for run in runs)
    result.add_table(
        "qos_gc",
        "Real volume GC vs victim p99 under each policy (gc_steady at "
        "fill 0.9: 2 random-overwrite writers + greedy GC on the "
        "volume-gc port vs 2 victim readers, admission=8; token-bucket "
        "caps the writer at 60 and volume-gc at 20 MB/s)",
        ["Policy", "VictimDone", "Victim p99(us)", "vs base", "Writes",
         "GC runs", "Writer MB/s", "GC MB/s"],
        rows)
    return result
