"""End-to-end request tracing: where did each request's time go?

A :class:`RequestTracer` is the single collection point for completed
:class:`~repro.io.request.IORequest` objects.  It maintains:

* per-stage latency histograms (log-bucketed, bounded memory) across
  all requests — "how long do requests spend waiting for admission?";
* per-tenant end-to-end latency histograms and completion counts — the
  raw material for per-tenant throughput/p99 QoS reporting;
* Figure 12 attribution: the one mapping of a request's stage ledger
  onto the paper's software / storage / transfer / network taxonomy.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..sim import LatencyHistogram, Simulator
from .request import UNSAMPLED, IOKind, IORequest

__all__ = ["RequestTracer"]

#: Annotation carrying analytic network propagation (Figure 12 "Network").
NETWORK_COMPONENT = "network"


class RequestTracer:
    """Folds completed requests into statistics and attributes their latency.

    Only aggregates are kept — a completed request object is not
    retained, so memory does not grow with the number of requests.

    ``sample`` enables deterministic 1-in-N tracing for open-loop-scale
    runs: :meth:`start` returns a request object for every ``sample``-th
    arrival (counted per tracer, so reruns of the same scenario make
    byte-identical sampling decisions) and ``None`` for the rest — the
    whole pipeline then runs span-free for unsampled requests.  Each
    traced completion is folded in with weight ``N``, keeping aggregate
    counts, byte totals, and histogram masses unbiased; percentiles
    come from the sampled subset.  ``sample=1`` (the default) traces
    everything and is byte-identical to the pre-sampling tracer.
    """

    def __init__(self, sim: Simulator, sample: int = 1):
        if sample < 1:
            raise ValueError(f"trace sample must be >= 1, got {sample}")
        self.sim = sim
        self.sample = sample
        self.started = 0
        self.stage_histograms: Dict[str, LatencyHistogram] = {}
        self.tenant_latency: Dict[str, LatencyHistogram] = {}
        self.tenant_completed: Dict[str, int] = {}
        self.tenant_bytes: Dict[str, int] = {}
        self.tenant_deadline_misses: Dict[str, int] = {}

    # -- lifecycle ------------------------------------------------------
    def start(self, kind: "IOKind | str", addr: Any, size: int,
              tenant: str = "default", priority: Optional[int] = None,
              deadline_ns: Optional[int] = None) -> Optional[IORequest]:
        """Create a request stamped as issued now.

        Returns the falsy :data:`~repro.io.request.UNSAMPLED` marker
        for arrivals outside the 1-in-N sample; every downstream span
        and the final :meth:`complete` then no-op, and lower layers
        *adopt* the marker instead of opening a replacement request
        (which would count the arrival twice).
        """
        started = self.started
        self.started = started + 1
        if started % self.sample:
            return UNSAMPLED
        return IORequest(kind, addr, size, tenant=tenant, priority=priority,
                         deadline_ns=deadline_ns, issued_ns=self.sim.now)

    def complete(self, request: Optional[IORequest]) -> None:
        """Stamp completion and fold the request into the statistics.

        ``None`` and :data:`~repro.io.request.UNSAMPLED` are accepted
        (and ignored) so call sites can complete unconditionally
        whether or not tracing was attached.
        """
        if not request:
            return
        if request.issued_ns is None:
            request.issued_ns = self.sim.now
        request.completed_ns = self.sim.now
        tenant = request.tenant
        weight = self.sample
        for stage, duration in request.stages.items():
            hist = self.stage_histograms.get(stage)
            if hist is None:
                hist = self.stage_histograms[stage] = LatencyHistogram(stage)
            hist.record(duration, weight)
        stats = self.tenant_latency.get(tenant)
        if stats is None:
            stats = self.tenant_latency[tenant] = LatencyHistogram(tenant)
        stats.record(request.total_ns, weight)
        self.tenant_completed[tenant] = (
            self.tenant_completed.get(tenant, 0) + weight)
        self.tenant_bytes[tenant] = (
            self.tenant_bytes.get(tenant, 0) + request.size * weight)
        if request.missed_deadline():
            self.tenant_deadline_misses[tenant] = (
                self.tenant_deadline_misses.get(tenant, 0) + weight)

    # -- attribution ----------------------------------------------------
    @staticmethod
    def figure12_components(request: IORequest) -> Dict[str, int]:
        """Map a completed request's ledger onto Figure 12's components.

        ``software`` is the ``software`` stage (host CPU, portal writes,
        kernel costs and the Ethernet RPC's fixed latency), ``storage``
        the ``storage`` stage (flash command + array access), ``network``
        the cluster's propagation annotation, and ``transfer`` the
        residual: every other stage (queueing, card bus and aurora, PCIe,
        interrupt) plus the wire time no span claims.  A negative
        residual means spans double-count time, so it raises
        :class:`ValueError` instead of being clamped away.
        """
        software = request.stage_ns("software")
        storage = request.stage_ns("storage")
        network = request.annotations.get(NETWORK_COMPONENT, 0)
        transfer = request.total_ns - software - storage - network
        if transfer < 0:
            raise ValueError(
                f"{request!r}: software {software} + storage {storage} + "
                f"network {network} ns exceed its total "
                f"{request.total_ns} ns")
        return {"software": software, "storage": storage,
                "transfer": transfer, "network": network}

    # -- reporting ------------------------------------------------------
    def stage_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-stage histogram summaries (count/mean/p50/p99)."""
        return {stage: hist.summary()
                for stage, hist in sorted(self.stage_histograms.items())}

    def tenant_summary(self, elapsed_ns: Optional[int] = None
                       ) -> Dict[str, Dict[str, float]]:
        """Per-tenant completions, throughput, latency percentiles.

        ``elapsed_ns`` is the measurement window for throughput
        (defaults to the current simulated time).
        """
        window = self.sim.now if elapsed_ns is None else elapsed_ns
        out: Dict[str, Dict[str, float]] = {}
        for tenant, stats in sorted(self.tenant_latency.items()):
            completed = self.tenant_completed.get(tenant, 0)
            moved = self.tenant_bytes.get(tenant, 0)
            out[tenant] = {
                "completed": float(completed),
                "iops": completed / (window / 1e9) if window else 0.0,
                "bytes": float(moved),
                "gbytes_per_sec": moved / window if window else 0.0,
                "mean_ns": stats.mean,
                "p50_ns": stats.percentile(50),
                "p99_ns": stats.percentile(99),
                "deadline_misses": float(
                    self.tenant_deadline_misses.get(tenant, 0)),
            }
        return out

    def overall_latency(self) -> LatencyHistogram:
        """End-to-end latency across every tenant, as one histogram.

        The per-path mean/p99 columns of the figure benchmarks come
        from here when a run has a single logical tenant per tracer.
        """
        merged = LatencyHistogram("overall")
        for hist in self.tenant_latency.values():
            merged.merge(hist)
        return merged

