"""Determinism regression: one spec, two runs, identical JSON.

The windowed bandwidth accounting, the token-bucket refill math and
the per-tenant relabeling all aggregate into dicts; if any of them
ever iterated in address order (sets, id-keyed maps) instead of
deterministic insertion order, repeat runs would produce differently
ordered — or differently valued — results.  These tests pin the
contract the perf-snapshot CI artifacts rely on: running the *same*
:class:`~repro.api.ScenarioSpec` twice yields byte-identical
``RunResult.to_json()`` for the qos family and the Figure 13
bandwidth scenarios.
"""

import dataclasses
import json

import pytest

from repro.analysis.qos import qos_scenario
from repro.api import BENCH_GEOMETRY, Session
from repro.experiments.ablations import run_ablation_ftl
from repro.flash import FlashGeometry
from repro.flash.device import StorageDevice
from repro.fs import RFS
from repro.sim import Simulator
from repro.experiments.dvol import (
    dvol_local_spec,
    dvol_qd_sweep_spec,
    dvol_scan_spec,
    run_dvol_qd_sweep,
)
from repro.experiments.faults import run_fault_storm
from repro.experiments.fig13 import isp_multi_spec
from repro.experiments.open_loop import run_open_loop
from repro.experiments.pipeline import (
    batching_spec,
    qd_sweep_spec,
    run_qd_sweep,
)
from repro.experiments.qos import (
    qos_cluster_scenario,
    qos_gc_spec,
    run_qos_gc,
)
from repro.experiments.volume import (
    gc_steady_spec,
    run_gc_steady,
    volume_scan_spec,
    write_burst_spec,
)


def _shorten(spec, duration_ns):
    return dataclasses.replace(
        spec, workload=dataclasses.replace(spec.workload,
                                           duration_ns=duration_ns))


def _run_twice(spec):
    first = Session(spec).run().to_json()
    second = Session(spec).run().to_json()
    return first, second


@pytest.mark.parametrize("policy", ["fifo", "wfq", "token-bucket"])
def test_qos_scenario_is_deterministic(policy):
    spec = qos_scenario(policy, BENCH_GEOMETRY, 2_000_000)
    first, second = _run_twice(spec)
    assert first == second


def test_qos_cluster_scenario_is_deterministic():
    spec = qos_cluster_scenario("wfq", duration_ns=1_500_000)
    first, second = _run_twice(spec)
    assert first == second


def test_qos_gc_scenario_is_deterministic():
    # Long enough for GC to run under both token buckets (writer and
    # volume-gc), so refill math and relocation order are both pinned.
    spec = qos_gc_spec("token-bucket", duration_ns=30_000_000)
    first, second = _run_twice(spec)
    assert first == second
    assert json.loads(first)["metrics"]["volume"]["0"]["gc_runs"] > 0


def test_fig13_scenario_is_deterministic():
    # The heaviest Figure 13 machine: 3 nodes, remote ISP-F tenants,
    # parallel lanes — shortened so tier-1 stays fast.
    spec = _shorten(isp_multi_spec(2, 2), 400_000)
    first, second = _run_twice(spec)
    assert first == second


@pytest.mark.parametrize("queue_depth", [1, 16, 64])
def test_qd_sweep_scenario_is_deterministic(queue_depth):
    # The async submission pump (wake-event windows, out-of-order batch
    # completions) must not introduce ordering nondeterminism.
    spec = _shorten(qd_sweep_spec(queue_depth), 1_000_000)
    first, second = _run_twice(spec)
    assert first == second


@pytest.mark.parametrize("pattern,coalesce", [
    ("sequential", True), ("sequential", False), ("random", True)])
def test_batching_scenario_is_deterministic(pattern, coalesce):
    # The coalescer's staging queue, dispatcher gate and merged-command
    # fan-out must replay identically.
    spec = _shorten(batching_spec(pattern, coalesce), 1_000_000)
    first, second = _run_twice(spec)
    assert first == second


@pytest.mark.parametrize("coalesce", [True, False])
def test_volume_scan_scenario_is_deterministic(coalesce):
    # The FTL map, sequential allocator, prefill and chunked refill
    # must replay identically.
    spec = _shorten(volume_scan_spec(coalesce), 1_000_000)
    first, second = _run_twice(spec)
    assert first == second


@pytest.mark.parametrize("pattern,coalesce", [
    ("sequential", True), ("sequential", False), ("random", True)])
def test_write_burst_scenario_is_deterministic(pattern, coalesce):
    # The write coalescer's staging, pacing gate and multi-page
    # program fan-out must replay identically.
    spec = _shorten(write_burst_spec(pattern, coalesce), 1_000_000)
    first, second = _run_twice(spec)
    assert first == second


@pytest.mark.parametrize("policy", ["fifo", "wfq"])
def test_gc_steady_scenario_is_deterministic(policy):
    # GC victim selection, relocation through the volume-gc port and
    # per-tenant WA accounting must replay identically.
    spec = _shorten(gc_steady_spec(policy, 0.9), 4_000_000)
    first, second = _run_twice(spec)
    assert first == second


@pytest.mark.parametrize("maker", [
    lambda: batching_spec("sequential", True),
    lambda: qd_sweep_spec(16),
], ids=["isp-batching", "host-qd"])
def test_read_paths_idle_volume_machinery(maker):
    # repro.volume is always imported (Session pulls it in), so the
    # meaningful no-regression pin is that host/isp scenarios build
    # *none* of its machinery — no volumes, no extra splitter ports,
    # no write coalescers engaged — and replay byte-identically.
    # (That the measured numbers match the pre-volume implementation
    # is pinned separately: the benchmark shape assertions and the
    # fig12/fig13/qos renderings under benchmarks/results/ did not
    # move when the subsystem landed.)
    spec = _shorten(maker(), 800_000)
    session = Session(spec)
    before = session.run().to_json()
    assert session.volumes == {}
    assert session._ifaces == {}
    # The node's ports are exactly the three fixed ones.
    assert [p.tenant for p in session.node.splitter.ports] == [
        "isp", "host", "net"]
    # Read-only workloads never touch the program path.
    for port in session.node.splitter.ports:
        assert (port.write_coalescer is None
                or port.write_coalescer.commands == 0)
    after = Session(spec).run().to_json()
    assert before == after


def test_trace_sample_default_is_off_and_byte_identical():
    # trace_sample=1 is the default and must be a literal no-op: the
    # explicit spec produces byte-identical JSON to the implicit one,
    # so every pre-sampling golden still holds.
    spec = _shorten(qd_sweep_spec(16), 1_000_000)
    assert spec.trace_sample == 1
    explicit = dataclasses.replace(spec, trace_sample=1)
    assert Session(spec).run().to_json() == \
        Session(explicit).run().to_json()


@pytest.mark.parametrize("maker", [
    lambda: qd_sweep_spec(16),
    lambda: gc_steady_spec("wfq", 0.9),
], ids=["host-qd", "volume-gc"])
def test_trace_sampling_changes_no_scheduling(maker):
    # Sampling thins the *accounting*, never the schedule: issue and
    # completion streams are identical at any sample rate, and the
    # weight-scaled completion counts stay exact (every completion
    # lands in some sampled stride's weight).
    spec = _shorten(maker(), 2_000_000)
    full = Session(spec).run()
    sampled = Session(dataclasses.replace(spec, trace_sample=7)).run()
    assert sampled.elapsed_ns == full.elapsed_ns
    assert sampled.metrics["completions"] == full.metrics["completions"]
    # The weight-scaled traced counts stay within one sampling stride
    # of the true per-tenant totals.
    for tenant, stats in full.tenant_stats.items():
        estimate = sampled.tenant_stats[tenant]["completed"]
        assert abs(estimate - stats["completed"]) < 7


@pytest.mark.parametrize("maker", [
    lambda: dvol_scan_spec(True),
    lambda: dvol_scan_spec(False),
    lambda: dvol_local_spec(),
], ids=["dvol-coalesce-on", "dvol-coalesce-off", "dvol-local"])
def test_dvol_scan_scenario_is_deterministic(maker):
    # The distributed read/write path — placement, request routing,
    # response-endpoint selection, the remote coalescer's staging and
    # slot pacing — must replay byte-identically.  The coalesce-off
    # case doubles as the acceptance pin that disabling remote
    # coalescing changes no scheduling decision between reruns.
    spec = _shorten(maker(), 400_000)
    first, second = _run_twice(spec)
    assert first == second


@pytest.mark.parametrize("n_nodes", [1, 2])
def test_dvol_qd_sweep_scenario_is_deterministic(n_nodes):
    spec = _shorten(dvol_qd_sweep_spec(n_nodes, 8), 400_000)
    first, second = _run_twice(spec)
    assert first == second


def test_importing_dvol_leaves_existing_scenarios_unchanged():
    # repro.dvol is always imported (the spec layer pulls in its
    # placement modes), so the no-regression pin is that non-dvol
    # scenarios build *none* of its machinery — no sharded volume, no
    # routing tier, no extra endpoints — and replay byte-identically.
    spec = _shorten(qd_sweep_spec(16), 800_000)
    session = Session(spec)
    before = session.run().to_json()
    assert session.dvol is None
    assert session._ifaces == {}
    # The node's ports are exactly the three fixed ones.
    assert [p.tenant for p in session.node.splitter.ports] == [
        "isp", "host", "net"]
    after = Session(spec).run().to_json()
    assert before == after


def _rfs_under_gc_pressure() -> str:
    # A small device and repeated whole-file overwrites: the log fills,
    # greedy GC runs many times, and every relocation decision — victim
    # choice (deterministic block-key tiebreak), re-check outcomes,
    # accounting — lands in the returned JSON blob.
    geo = FlashGeometry(buses_per_card=2, chips_per_bus=2,
                        blocks_per_chip=4, pages_per_block=4,
                        page_size=64, cards_per_node=1)
    sim = Simulator()
    device = StorageDevice(sim, geometry=geo)
    fs = RFS(sim, device)

    def workload(sim):
        for round_no in range(6):
            for f in range(6):
                body = bytes([f]) * (3 * fs.page_size)
                yield from fs.write_file(f"f{f}", body)

    sim.run_process(workload(sim))
    core = fs.core
    return json.dumps({
        "elapsed_ns": sim.now,
        "user_writes": dict(core.user_writes),
        "total_programs": core.total_programs,
        "gc_runs": core.gc_runs,
        "gc_moved_pages": core.gc_moved_pages,
        "gc_stale_moves": core.gc_stale_moves,
        "gc_victims": [list(v) for v in core.gc_victims],
        "write_amplification": core.write_amplification(),
    }, sort_keys=True)


def test_rfs_gc_pressure_is_deterministic():
    # The unified FTL core under RFS: reruns must agree byte-for-byte
    # on the full GC history, not just the summary counters.
    first = _rfs_under_gc_pressure()
    second = _rfs_under_gc_pressure()
    assert first == second
    assert json.loads(first)["gc_runs"] > 0


def test_ablation_ftl_is_deterministic():
    # The spare-area ablation drives the driver FTL through heavy
    # random-overwrite GC at three over-provisioning points; its JSON
    # (write amp + GC run counts) must replay byte-identically.
    first = run_ablation_ftl().to_json()
    second = run_ablation_ftl().to_json()
    assert first == second


# ----------------------------------------------------------------------
# jobs=2 vs jobs=1: the parallel runner's headline guarantee
# ----------------------------------------------------------------------
@pytest.mark.parametrize("runner,kwargs", [
    (run_qd_sweep, dict(depths=(1, 8), window_ns=600_000)),
    (run_gc_steady, dict(policies=("fifo",), fills=(0.9,),
                         duration_ns=4_000_000)),
    (run_open_loop, dict(sweep_rates=(200_000, 400_000),
                         target_issued=4_000)),
    (run_dvol_qd_sweep, dict(nodes=(1, 2), qds=(2, 8),
                             window_ns=300_000)),
    (run_fault_storm, dict(policies=("fifo",),
                           duration_ns=12_000_000)),
    (run_qos_gc, dict(duration_ns=4_000_000)),
], ids=["qd_sweep", "gc_steady", "open_loop", "dvol_qd_sweep",
        "fault_storm", "qos_gc"])
def test_runner_jobs2_is_byte_identical_to_serial(runner, kwargs):
    # The whole-experiment pin behind `repro run --jobs N`:
    # fanning a sweep's points across worker processes must change
    # nothing — not a digit, not a key order — in the merged
    # RunResult JSON.  (Reduced grids/durations keep tier-1 fast;
    # the full grids go through the identical code path.)
    serial = runner(jobs=1, **kwargs).to_json()
    parallel = runner(jobs=2, **kwargs).to_json()
    assert serial == parallel


# ----------------------------------------------------------------------
# reliability subsystem: absent FaultSpec changes nothing
# ----------------------------------------------------------------------
def test_spec_without_faultspec_serializes_without_fault_key():
    # The serialization pin behind "default off = byte-identical": a
    # spec with no FaultSpec must emit exactly the pre-reliability
    # dict — no "fault" key, so every committed experiment JSON and
    # perf snapshot replays unchanged.
    spec = _shorten(qd_sweep_spec(16), 800_000)
    assert spec.fault is None
    assert "fault" not in spec.to_dict()


def test_faultless_scenarios_build_no_fault_machinery():
    # No FaultSpec -> no injector on any chip, no "faults" metrics
    # section, no "reliability" key in volume stats — and the run
    # replays byte-identically.
    spec = _shorten(gc_steady_spec("fifo", 0.9), 2_000_000)
    session = Session(spec)
    payload = session.run().to_json()
    assert session.node.faults is None
    for card in session.node.device.cards:
        for chip in card.chips.values():
            assert chip.faults is None
    metrics = json.loads(payload)["metrics"]
    assert "faults" not in metrics
    assert all("reliability" not in v for v in metrics["volume"])
    assert payload == Session(spec).run().to_json()


def test_zero_rate_faultspec_changes_no_scheduling():
    # An installed injector with all rates zero must not move a single
    # event: same elapsed time, same completions, same tenant stats.
    from repro.api import FaultSpec
    spec = _shorten(gc_steady_spec("fifo", 0.9), 2_000_000)
    faulty = dataclasses.replace(spec, fault=FaultSpec(seed=3))
    base = Session(spec).run()
    injected = Session(faulty).run()
    assert injected.elapsed_ns == base.elapsed_ns
    assert injected.metrics["completions"] == base.metrics["completions"]
    assert injected.tenant_stats == base.tenant_stats


def test_fault_storm_scenario_is_deterministic():
    # Injected failures, write recovery and suspect-block retirement
    # must replay byte-identically — fault decisions are hashes of the
    # plan seed and the operation's identity, never draw-order.
    from repro.experiments.faults import fault_storm_spec
    spec = _shorten(fault_storm_spec("wfq"), 15_000_000)
    first, second = _run_twice(spec)
    assert first == second


def test_random_traffic_is_untouched_by_coalescing():
    # Coalescing that cannot merge must not change *any* measured
    # value: the random scenario's tenant stats are identical on/off
    # (only the spec echo and coalescing counters may differ).
    on = Session(_shorten(batching_spec("random", True),
                          1_000_000)).run()
    off = Session(_shorten(batching_spec("random", False),
                           1_000_000)).run()
    assert on.tenant_stats == off.tenant_stats
    assert on.stage_stats == off.stage_stats
    assert (on.metrics["completions"] == off.metrics["completions"])
