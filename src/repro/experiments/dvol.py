"""Distributed-volume experiments: the cluster as one storage system.

Two registered scenario families exercise :mod:`repro.dvol` — the
subsystem that stripes one logical LPN space across per-node
FTL-backed shards reached over the integrated network:

* ``dvol_scan`` — a logically-sequential cluster scan, one tenant per
  node, each walking its own slice of the shared address space.  With
  striped chunk placement half of every tenant's pages live on the
  other node, so the scan exercises the whole remote path (channel →
  destination splitter → response).  Remote coalescing on/off: on, the
  network service port's remote read :class:`~repro.flash.Coalescer` merges
  the stripe-adjacent remote runs into multi-page commands; off, the
  distributed scan must still deliver ~0.8x the summed bandwidth of
  independent local scans — the paper's "a rack behaves like one
  appliance" claim at the volume level.
* ``dvol_qd_sweep`` — submission window x node count over the network:
  cluster aggregate bandwidth and per-node p99 as the per-tenant queue
  depth deepens, for 1 / 2 / 4 nodes.  At saturating depth the
  aggregate must scale >= 1.6x going from one node to two — remote
  hops cost latency, not bandwidth, once the window covers them.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..api import (
    BENCH_GEOMETRY,
    DistributedVolumeSpec,
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

# Shared distributed-volume machine knobs.  The stripe chunk matches
# the striped-index card interleave (8-aligned groups of 8 pages per
# card), so a chunk lands whole on one card and stays mergeable; the
# deliberately small service-port slot cap is what makes the remote
# coalescer's pacing bind; the network payload MTU is page-sized so a
# response crosses each hop in few packets.
DVOL_CHUNK = 8
DVOL_MAX_PAGES = 8
DVOL_REMOTE_SLOTS = 4
DVOL_PACKET_PAYLOAD = 2048

SCAN_WINDOW_NS = 2_500_000
SCAN_QD = 16
SCAN_WORKERS = 2
SCAN_SPAN = 8192  # LPNs per tenant (fully prefilled)


def _dvol(shards: int, remote_coalesce: bool) -> DistributedVolumeSpec:
    return DistributedVolumeSpec(
        shards=shards, placement="striped",
        stripe_chunk_pages=DVOL_CHUNK,
        remote_coalesce=remote_coalesce,
        remote_coalesce_max_pages=DVOL_MAX_PAGES,
        remote_in_flight=DVOL_REMOTE_SLOTS,
        volume={"overprovision": 0.25, "allocation": "sequential",
                "fill": 1.0})


def _topology(n_nodes: int) -> TopologySpec:
    """Per-pair parallel lanes for 2 nodes, all-to-all beyond.

    Two nodes exchange half of *both* tenants' pages over one cable
    pair; doubling the lanes (the Figure 13 idiom) keeps the wire off
    the critical path so the measurement sees flash, not serialization.
    """
    if n_nodes <= 1:
        return TopologySpec()
    if n_nodes == 2:
        return TopologySpec(kind="custom", links=((0, 1), (0, 1)))
    return TopologySpec(kind="fully_connected")


def _scan_tenants(n_nodes: int, span: int,
                  workers: int = SCAN_WORKERS) -> Tuple[TenantSpec, ...]:
    return tuple(
        TenantSpec(f"scan-n{node}", access="dvol", node=node,
                   workers=workers, pattern="sequential",
                   software_path=False, addr_space=span,
                   seed_base=7 + node)
        for node in range(n_nodes))


def dvol_scan_spec(remote_coalesce: bool,
                   duration_ns: int = SCAN_WINDOW_NS) -> ScenarioSpec:
    """Two nodes, one scan tenant each, striped distributed volume."""
    return ScenarioSpec(
        name=f"dvol-scan-{'on' if remote_coalesce else 'off'}",
        n_nodes=2, geometry=BENCH_GEOMETRY,
        network=NetworkConfig(max_packet_payload=DVOL_PACKET_PAYLOAD),
        topology=_topology(2),
        coalesce=True, coalesce_max_pages=DVOL_MAX_PAGES,
        dvol=_dvol(2, remote_coalesce),
        workload=WorkloadSpec(
            duration_ns=duration_ns, queue_depth=SCAN_QD,
            tenants=_scan_tenants(2, SCAN_SPAN)))


def dvol_local_spec(duration_ns: int = SCAN_WINDOW_NS) -> ScenarioSpec:
    """The single-node reference: the same scan with no network at all."""
    return ScenarioSpec(
        name="dvol-scan-local", n_nodes=1, geometry=BENCH_GEOMETRY,
        coalesce=True, coalesce_max_pages=DVOL_MAX_PAGES,
        dvol=_dvol(1, False),
        workload=WorkloadSpec(
            duration_ns=duration_ns, queue_depth=SCAN_QD,
            tenants=_scan_tenants(1, SCAN_SPAN)))


def _mean_pages_per_command(run: RunResult) -> float:
    remote = run.metrics.get("dvol", {}).get("remote_coalescing", {})
    commands = sum(stats["commands"] for stats in remote.values())
    pages = sum(stats["pages"] for stats in remote.values())
    return pages / commands if commands else 0.0


def dvol_scan_point(args: Tuple[str, int]) -> RunResult:
    """One point: ``(scenario_key, duration_ns)`` -> session run."""
    key, duration_ns = args
    if key == "local":
        spec = dvol_local_spec(duration_ns)
    else:
        spec = dvol_scan_spec(key == "coalesce-on", duration_ns)
    return Session(spec).run()


@experiment("dvol_scan",
            title="distributed volume scan: remote coalescing on/off",
            produces="benchmarks/test_dvol_scan.py",
            label="Dvol-scan")
def run_dvol_scan(jobs: int = 1,
                  window_ns: int = SCAN_WINDOW_NS) -> RunResult:
    result = RunResult("dvol_scan")
    page = BENCH_GEOMETRY.page_size
    measured: Dict[str, dict] = {}
    rows = []
    keys = ("local", "coalesce-off", "coalesce-on")
    runs = parallel_map(dvol_scan_point,
                        [(key, window_ns) for key in keys], jobs=jobs)
    local = runs[0]
    local_bw = local.metrics["total_bandwidth_gbs"]
    measured["local"] = {
        "bandwidth_gbs": local.metrics["bandwidth_gbs"],
        "total_bandwidth_gbs": local_bw,
        "tenant": {name: dict(stats)
                   for name, stats in local.tenant_stats.items()},
    }
    rows.append(["local x1", f"{local_bw:.2f}", "-", "-"])
    for key, run in zip(keys[1:], runs[1:]):
        remote_coalesce = key == "coalesce-on"
        total = run.metrics["total_bandwidth_gbs"]
        pages_per_cmd = _mean_pages_per_command(run)
        routers = run.metrics["dvol"].get("routers", {})
        measured[key] = {
            "bandwidth_gbs": run.metrics["bandwidth_gbs"],
            "total_bandwidth_gbs": total,
            "tenant": {name: dict(stats)
                       for name, stats in run.tenant_stats.items()},
            "remote_coalescing": run.metrics["dvol"].get(
                "remote_coalescing", {}),
            "routers": routers,
            "ratio_vs_local_sum": total / (2 * local_bw),
        }
        remote_reads = sum(r["remote_reads"] for r in routers.values())
        rows.append([
            key, f"{total:.2f}", f"{remote_reads}",
            f"{pages_per_cmd:.2f}" if remote_coalesce else "-",
        ])
    result.metrics["scenarios"] = measured
    result.metrics["window_ns"] = window_ns
    result.metrics["page_size"] = page
    result.metrics["aggregate_ratio_vs_local"] = (
        measured["coalesce-on"]["ratio_vs_local_sum"])
    result.metrics["remote_pages_per_command"] = (
        _mean_pages_per_command(runs[-1]))
    result.elapsed_ns = sum(run.elapsed_ns for run in runs)
    result.add_table(
        "dvol_scan",
        "Cluster-wide sequential scan over a 2-shard striped volume "
        "(one tenant per node, half of each tenant's pages remote): "
        "aggregate bandwidth vs the summed independent local scans, "
        "and the remote coalescer's merge factor",
        ["Scenario", "GB/s", "Remote reads", "pages/cmd"],
        rows)
    return result


# -- dvol_qd_sweep -----------------------------------------------------
SWEEP_WINDOW_NS = 2_000_000
SWEEP_NODES = (1, 2, 4)
SWEEP_QDS = (2, 8, 48)
SWEEP_SPAN = 6144


def dvol_qd_sweep_spec(n_nodes: int, queue_depth: int,
                       duration_ns: int = SWEEP_WINDOW_NS
                       ) -> ScenarioSpec:
    """One scan tenant per node over an ``n_nodes``-shard volume."""
    return ScenarioSpec(
        name=f"dvol-qd-n{n_nodes}-qd{queue_depth}",
        n_nodes=n_nodes, geometry=BENCH_GEOMETRY,
        network=NetworkConfig(max_packet_payload=DVOL_PACKET_PAYLOAD),
        topology=_topology(n_nodes),
        coalesce=True, coalesce_max_pages=DVOL_MAX_PAGES,
        dvol=_dvol(n_nodes, True),
        workload=WorkloadSpec(
            duration_ns=duration_ns, queue_depth=queue_depth,
            tenants=_scan_tenants(n_nodes, SWEEP_SPAN, workers=1)))


def dvol_qd_sweep_point(args: Tuple[int, int, int]) -> RunResult:
    """One point: ``(n_nodes, queue_depth, duration_ns)`` -> run."""
    n_nodes, queue_depth, duration_ns = args
    return Session(dvol_qd_sweep_spec(n_nodes, queue_depth,
                                      duration_ns)).run()


@experiment("dvol_qd_sweep",
            title="distributed volume: bandwidth scaling vs queue depth "
                  "and node count",
            produces="benchmarks/test_dvol_qd_sweep.py",
            label="Dvol-QD-sweep")
def run_dvol_qd_sweep(jobs: int = 1,
                      nodes: Tuple[int, ...] = SWEEP_NODES,
                      qds: Tuple[int, ...] = SWEEP_QDS,
                      window_ns: int = SWEEP_WINDOW_NS) -> RunResult:
    result = RunResult("dvol_qd_sweep")
    points = [(n_nodes, qd, window_ns)
              for n_nodes in nodes for qd in qds]
    runs = parallel_map(dvol_qd_sweep_point, points, jobs=jobs)
    sweep: Dict[str, Dict[str, dict]] = {}
    rows = []
    for (n_nodes, qd, _), run in zip(points, runs):
        total = run.metrics["total_bandwidth_gbs"]
        p99 = {name: stats["p99_ns"]
               for name, stats in run.tenant_stats.items()}
        sweep.setdefault(str(n_nodes), {})[str(qd)] = {
            "total_bandwidth_gbs": total,
            "bandwidth_gbs": run.metrics["bandwidth_gbs"],
            "p99_ns": p99,
            "completions": run.metrics["completions"],
        }
        rows.append([
            f"{n_nodes}", f"{qd}", f"{total:.2f}",
            " / ".join(f"{units.to_us(p99[f'scan-n{i}']):.0f}"
                       for i in range(n_nodes)),
        ])
    top = str(max(qds))
    result.metrics["sweep"] = sweep
    result.metrics["nodes"] = list(nodes)
    result.metrics["queue_depths"] = list(qds)
    result.metrics["window_ns"] = window_ns
    result.elapsed_ns = sum(run.elapsed_ns for run in runs)
    # Scaling ratios for whichever node counts this invocation swept
    # (reduced grids — e.g. the determinism pins — may omit some).
    if "1" in sweep and "2" in sweep:
        result.metrics["scaling_1_to_2"] = (
            sweep["2"][top]["total_bandwidth_gbs"]
            / sweep["1"][top]["total_bandwidth_gbs"])
    if "1" in sweep and "4" in sweep:
        result.metrics["scaling_1_to_4"] = (
            sweep["4"][top]["total_bandwidth_gbs"]
            / sweep["1"][top]["total_bandwidth_gbs"])
    result.add_table(
        "dvol_qd_sweep",
        "Cluster aggregate bandwidth and per-node p99 vs submission "
        "window, one scan tenant per node over an n-shard striped "
        "volume (remote coalescing on): at saturating depth the "
        "aggregate scales with node count — remote hops cost latency, "
        "not bandwidth",
        ["Nodes", "QD", "GB/s", "p99/node (us)"],
        rows)
    return result
