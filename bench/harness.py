"""One measured repetition of a workload, driven through the public API.

:func:`run_once` builds a :class:`~repro.api.Session` (timed as set-up),
runs it with ``drain=True`` (timed as run), and returns what the
benchmark reports: host times, exact simulated-latency percentiles,
model counters, the sha256 digest of ``RunResult.to_json()`` and the
outcome of the correctness checks.  With ``profile=True`` the run is
under cProfile and the record carries the per-layer fold.

Untraced host times are scaled to a nominal machine speed by a
:class:`SpeedProbe` running beside the repetition.

Simulated latency is captured from outside the program: while a
repetition runs, :class:`Capture` wraps the public
``RequestTracer.start``/``complete`` and appends ``completed_ns -
issued_ns`` of every traced request of the workload's own tenants to a
flat array.  GC relocation requests (``volume-gc``/``dvol-gc`` ports)
are not the workload's and are left out.
"""

from __future__ import annotations

import array
import contextlib
import cProfile
import gc
import hashlib
import heapq
import math
import pstats
import resource
import signal
import time
from typing import Dict, List

from repro.api import ScenarioSpec, Session
from repro.io import RequestTracer
from repro.sim.core import Process

import layers

US = 1000.0
#: The speed probe times PROBE_ITERATIONS of the reference loop every
#: PROBE_PERIOD_S host seconds.
PROBE_PERIOD_S = 0.05
PROBE_ITERATIONS = 3000
#: Host seconds one probe takes on the machine every scaled host time
#: refers to (a quiet 2.1 GHz Xeon vCPU, mid-run).
PROBE_NOMINAL_S = 0.0025


class Capture:
    """Counts the workload's requests and records their latencies.

    ``started`` counts every arrival (sampled or not), ``traced_started``
    and ``traced_completed`` the requests the tracer materialized, and
    ``latencies`` holds one simulated latency (ns) per traced completion.
    """

    def __init__(self, labels):
        self.labels = frozenset(labels)
        self.latencies = array.array("q")
        self.started = 0
        self.traced_started = 0
        self.traced_completed = 0

    def __enter__(self) -> "Capture":
        self._saved = (RequestTracer.start, RequestTracer.complete)
        start, complete = self._saved
        labels = self.labels
        append = self.latencies.append
        capture = self

        def traced_start(tracer, kind, addr, size, tenant="default",
                         *args, **kwargs):
            request = start(tracer, kind, addr, size, tenant,
                            *args, **kwargs)
            if tenant in labels:
                capture.started += 1
                if request:
                    capture.traced_started += 1
            return request

        def traced_complete(tracer, request):
            complete(tracer, request)
            if request and request.tenant in labels:
                capture.traced_completed += 1
                append(request.completed_ns - request.issued_ns)

        RequestTracer.start = traced_start
        RequestTracer.complete = traced_complete
        return self

    def __exit__(self, *exc) -> None:
        RequestTracer.start, RequestTracer.complete = self._saved


def workload_labels(spec: ScenarioSpec) -> List[str]:
    """The tracer labels the workload's own requests carry."""
    return [tenant.sched_label() for tenant in spec.workload.tenants]


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (exact sample)."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def _volume_stats(metrics: dict) -> List[dict]:
    """Every FTL-backed volume's stats: node volumes and dvol shards."""
    volumes = list(metrics.get("volume", {}).values())
    volumes += list(metrics.get("dvol", {}).get("shards", {}).values())
    return volumes


def _coalescer_totals(per_node: dict) -> tuple:
    commands = pages = 0
    for ports in per_node.values():
        for stats in ports.values():
            commands += stats["commands"]
            pages += stats["pages"]
    return commands, pages


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def checks(session: Session, metrics: dict) -> List[str]:
    """Model invariants every run must hold; returns the failures."""
    failures = []
    for stats in _volume_stats(metrics):
        user = sum(stats["user_writes"].values())
        if stats["total_programs"] != (user + stats["gc_moved_pages"]
                                       + stats["gc_stale_moves"]):
            failures.append(
                f"FTL accounting: total_programs {stats['total_programs']}"
                f" != user {user} + moved {stats['gc_moved_pages']} + "
                f"stale {stats['gc_stale_moves']}")
        reliability = stats.get("reliability")
        if reliability and (reliability["lost_pages"]
                            or reliability["gc_lost_pages"]):
            failures.append(f"lost pages: {reliability['lost_pages']} "
                            f"foreground, {reliability['gc_lost_pages']} GC")
    if session.cluster is not None:
        ledger = session.cluster.network.byte_ledger()
        sent = ledger["endpoint_sent_bytes"]
        if (sent != ledger["endpoint_received_bytes"]
                or ledger["link_payload_bytes"] - ledger["forwarded_bytes"]
                != sent):
            failures.append(f"network byte ledger does not balance: "
                            f"{ledger}")
    return failures


def model_counters(session: Session, metrics: dict, stages: dict,
                   completions: int) -> Dict[str, float]:
    """The deterministic per-layer counters of one run."""
    volumes = _volume_stats(metrics)
    user_writes = sum(sum(v["user_writes"].values()) for v in volumes)
    reliability = [v["reliability"] for v in volumes if "reliability" in v]
    read_cmds, read_pages = _coalescer_totals(metrics.get("coalescing", {}))
    dvol = metrics.get("dvol", {})
    remote_cmds, remote_pages = _coalescer_totals(
        {0: dvol.get("remote_coalescing", {})})
    read_cmds += remote_cmds
    read_pages += remote_pages
    prog_cmds, prog_pages = _coalescer_totals(
        metrics.get("write_coalescing", {}))
    remote_ops = sum(r["remote_reads"] + r["remote_writes"]
                     for r in dvol.get("routers", {}).values())
    link_bytes = (session.cluster.network.byte_ledger()["link_payload_bytes"]
                  if session.cluster is not None else 0)
    faults = metrics.get("faults", {}).values()

    def stage_us(name: str) -> float:
        return stages.get(name, {}).get("mean_ns", 0.0) / US

    return {
        "io.queue_us": stage_us("queue"),
        "host.software_us": stage_us("software"),
        "host.pcie_us": stage_us("pcie"),
        "host.interrupt_us": stage_us("interrupt"),
        "flash.storage_us": stage_us("storage"),
        "flash.device_us": stage_us("device"),
        "flash.read_pages_per_cmd": _ratio(read_pages, read_cmds),
        "flash.program_pages_per_cmd": _ratio(prog_pages, prog_cmds),
        "ftl.write_amplification": _ratio(
            sum(v["total_programs"] for v in volumes), user_writes),
        "ftl.gc_runs_per_kwrite": 1000 * _ratio(
            sum(v["gc_runs"] for v in volumes), user_writes),
        "ftl.gc_moved_per_write": _ratio(
            sum(v["gc_moved_pages"] for v in volumes), user_writes),
        "ftl.gc_stale_moves": sum(v["gc_stale_moves"] for v in volumes),
        "ftl.free_blocks_end": sum(v["free_blocks"] for v in volumes),
        "dvol.remote_frac": _ratio(remote_ops, completions) if dvol else 0.0,
        "dvol.remote_pages_per_cmd": _ratio(remote_pages, remote_cmds),
        "network.link_bytes_per_req": _ratio(link_bytes, completions),
        "network.net_us": stage_us("net"),
        "faults.program_failures": sum(f["program_failures"] for f in faults),
        "faults.recovered_writes": sum(r["recovered_writes"]
                                       for r in reliability),
        "faults.bad_blocks_retired": sum(r["bad_blocks_retired"]
                                         for r in reliability),
        "faults.lost_pages": sum(r["lost_pages"] + r["gc_lost_pages"]
                                 for r in reliability),
    }


def _reference_loop(n: int) -> dict:
    """Fixed pure-Python work in the simulator's style: heap pushes and
    pops of tuples, generator resumptions, dict stores."""
    heap: list = []
    table: dict = {}

    def echo():
        value = 0
        while True:
            value = yield value + 1

    resume = echo()
    next(resume)
    push, pop, send = heapq.heappush, heapq.heappop, resume.send
    for i in range(n):
        push(heap, (i * 7919 % 1000, i, [i]))
        if len(heap) > 64:
            pop(heap)
        table[i & 1023] = send(i)
    return table


class SpeedProbe:
    """Measures the host's speed while a repetition runs.

    A shared host's speed can drift by tens of percent within seconds.
    Every ``PROBE_PERIOD_S`` a SIGALRM handler times a short, fixed run
    of :func:`_reference_loop` (cyclic GC off) between two bytecodes of
    the simulation; :attr:`scale` (``PROBE_NOMINAL_S`` / mean probe
    time) then takes host seconds measured meanwhile to the nominal
    machine.  Both slow down together, so the drift cancels, while a
    change to the model cannot move the probe: it runs no model code
    and touches no model state.  Probe time is subtracted from the
    measured intervals (:attr:`spent`).
    """

    def __init__(self):
        self.spent = 0.0
        self.samples = 0

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _reference_loop(PROBE_ITERATIONS)
        self.spent += time.perf_counter() - t0
        self.samples += 1
        if enabled:
            gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def scale(self) -> float:
        if not self.samples:
            return 1.0
        return PROBE_NOMINAL_S * self.samples / self.spent


def run_once(spec: ScenarioSpec, profile: bool = False) -> dict:
    """Set up and run ``spec`` once; return the repetition's record.

    ``setup_s``/``run_s`` are host seconds scaled by the speed probe
    (``raw_run_s`` unscaled); a profiled repetition runs
    without the probe, whose handler the profile would see.  A run that
    raises is recorded, not propagated: ``error`` carries the exception
    and every attempted operation counts as failed.
    """
    if not spec.workload.drain:
        raise ValueError("benchmark workloads run with drain=True")
    gc.collect()
    capture = Capture(workload_labels(spec))
    profiler = cProfile.Profile() if profile else None
    probe = SpeedProbe()
    record: dict = {"error": None}
    with capture, (contextlib.nullcontext() if profile else probe):
        t0 = time.perf_counter()
        session = Session(spec)
        setup_probes = probe.spent
        t1 = time.perf_counter()
        try:
            if profiler is not None:
                profiler.enable()
            try:
                result = session.run()
            finally:
                if profiler is not None:
                    profiler.disable()
        except Exception as exc:  # the benchmark reports, never crashes
            record["error"] = f"{type(exc).__name__}: {exc}"
        t2 = time.perf_counter()
    raw_setup = t1 - t0 - setup_probes
    raw_run = t2 - t1 - (probe.spent - setup_probes)
    record.update(setup_s=raw_setup * probe.scale,
                  run_s=raw_run * probe.scale, raw_run_s=raw_run,
                  probe_scale=probe.scale)
    if record["error"] is not None:
        record.update(attempted=max(capture.started, 1),
                      failed=max(capture.started, 1), completions=0,
                      failures=[record["error"]])
        return record

    metrics = result.metrics
    completions = sum(metrics["completions"].values())
    # A request failed if its completion event failed (the tracer never
    # completed it) or it never completed at all (drain left it behind).
    failed = max(capture.started - completions,
                 capture.traced_started - capture.traced_completed, 0)
    ordered = sorted(capture.latencies)
    sim_s = session.sim.now / 1e9
    record.update(
        attempted=capture.started,
        failed=min(failed, capture.started),
        completions=completions,
        samples=len(ordered),
        sim_ns=session.sim.now,
        events=session.sim._eid,
        sim_p50_us=percentile(ordered, 50) / US,
        sim_p99_us=percentile(ordered, 99) / US,
        sim_kiops=_ratio(completions, sim_s) / 1000,
        digest=hashlib.sha256(result.to_json().encode()).hexdigest(),
        failures=checks(session, metrics),
        counters=model_counters(session, metrics, result.stage_stats,
                                completions),
    )
    if capture.started != completions and not failed:
        record["failures"].append(
            f"attempted {capture.started} != completed {completions}")
    if profiler is not None:
        stats = pstats.Stats(profiler).stats
        code = Process.__init__.__code__
        process_key = (code.co_filename, code.co_firstlineno, "__init__")
        record["layers"] = layers.fold(stats)
        record["processes"] = stats.get(process_key, (0, 0))[1]
    return record


def setup_times(spec: ScenarioSpec, count: int, seconds: float
                ) -> List[float]:
    """Probe-scaled host seconds of extra ``Session(spec)`` builds: at
    least ``count`` of them, and at least ``seconds`` in total."""
    times: List[float] = []
    with SpeedProbe() as probe:
        while len(times) < count or sum(times) < seconds:
            gc.collect()
            before = probe.spent
            t0 = time.perf_counter()
            Session(spec)
            times.append(time.perf_counter() - t0 - (probe.spent - before))
    return [t * probe.scale for t in times]


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
