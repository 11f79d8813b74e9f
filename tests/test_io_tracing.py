"""Tests for the unified request pipeline: requests, spans, tracer.

The exact Figure 12 attribution of each remote access path is pinned by
closed forms in ``test_timing_oracles.py``; here the tracer's
attribution is checked against the host costs it reads and against a
ledger whose spans double-count time.
"""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (ScenarioSpec, Session, TenantSpec, VolumeSpec,
                       WorkloadSpec)
from repro.core import BlueDBMCluster
from repro.flash import FlashGeometry, FlashSplitter, PhysAddr
from repro.flash.device import StorageDevice
from repro.io import (
    UNSAMPLED,
    IOKind,
    IORequest,
    RequestTracer,
    StageSpan,
)
from repro.sim import LatencyHistogram, Simulator, Store

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=4,
                    pages_per_block=8, page_size=64, cards_per_node=1)


@pytest.fixture
def sim():
    return Simulator()


def record_completions(tracer):
    """Keep every request ``tracer`` completes, for inspection.

    The tracer itself keeps only aggregates; tests that look at one
    request's stage ledger collect the requests here instead.
    """
    kept = []
    complete = tracer.complete

    def _complete(request):
        complete(request)
        if request:
            kept.append(request)

    tracer.complete = _complete
    return kept


class TestIORequest:
    def test_stage_ledger_accumulates(self):
        req = IORequest(IOKind.READ, None, 64, issued_ns=0)
        req.enter("software", 0)
        req.exit("software", 100)
        req.enter("software", 200)
        req.exit("software", 250)
        assert req.stage_ns("software") == 150
        assert req.stage_ns("never") == 0

    def test_double_enter_rejected(self):
        req = IORequest("read", None, 64)
        req.enter("queue", 0)
        with pytest.raises(ValueError):
            req.enter("queue", 5)

    def test_exit_without_enter_rejected(self):
        req = IORequest("read", None, 64)
        with pytest.raises(ValueError):
            req.exit("queue", 5)

    def test_totals_and_residual(self):
        req = IORequest("read", None, 64, issued_ns=100)
        req.enter("storage", 120)
        req.exit("storage", 170)
        req.annotate("network", 10)
        req.completed_ns = 200
        assert req.total_ns == 100
        assert req.stage_ns("storage") == 50
        # 40 ns no stage or annotation claimed.
        assert (req.total_ns - req.stage_ns("storage")
                - req.annotations["network"]) == 40

    def test_deadline_miss(self):
        req = IORequest("read", None, 64, deadline_ns=50, issued_ns=0)
        req.completed_ns = 60
        assert req.missed_deadline()
        ontime = IORequest("read", None, 64, deadline_ns=100, issued_ns=0)
        ontime.completed_ns = 60
        assert not ontime.missed_deadline()

    def test_kind_coercion(self):
        assert IORequest("write", None, 0).kind is IOKind.WRITE


class TestStageSpan:
    def test_span_charges_elapsed_time(self, sim):
        req = IORequest("read", None, 64, issued_ns=0)

        def proc(sim):
            with StageSpan(sim, req, "software"):
                yield sim.timeout(75)

        sim.run_process(proc(sim))
        assert req.stage_ns("software") == 75

    def test_none_request_is_noop(self, sim):
        def proc(sim):
            with StageSpan(sim, None, "software"):
                yield sim.timeout(10)

        sim.run_process(proc(sim))  # must not raise

    def test_span_closes_on_exception(self, sim):
        req = IORequest("read", None, 64, issued_ns=0)

        def proc(sim):
            with StageSpan(sim, req, "storage"):
                yield sim.timeout(5)
                raise RuntimeError("chip died")

        with pytest.raises(RuntimeError):
            sim.run_process(proc(sim))
        assert req.stage_ns("storage") == 5
        assert not req._open


class TestLatencyHistogram:
    def test_percentiles_bracket_samples(self):
        hist = LatencyHistogram("t")
        for value in [100] * 99 + [100_000]:
            hist.record(value)
        assert hist.count == 100
        # p50 falls in the [64, 128) bucket around the true value.
        assert 64 <= hist.percentile(50) <= 128
        assert hist.percentile(99.9) > 60_000
        assert hist.min_ns == 100 and hist.max_ns == 100_000

    def test_single_sample_exact(self):
        hist = LatencyHistogram()
        hist.record(777)
        assert hist.percentile(50) == 777

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(10)
        b.record(1000)
        a.merge(b)
        assert a.count == 2
        assert a.min_ns == 10 and a.max_ns == 1000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1)

    def test_empty_summary(self):
        assert LatencyHistogram().summary()["count"] == 0.0


class TestRequestTracer:
    def test_per_tenant_and_per_stage_rollups(self, sim):
        tracer = RequestTracer(sim)

        def proc(sim, tenant, ns):
            req = tracer.start("read", None, 64, tenant=tenant)
            with StageSpan(sim, req, "storage"):
                yield sim.timeout(ns)
            tracer.complete(req)

        sim.process(proc(sim, "isp", 100))
        sim.process(proc(sim, "isp", 300))
        sim.process(proc(sim, "host", 50))
        sim.run()
        summary = tracer.tenant_summary()
        assert summary["isp"]["completed"] == 2
        assert summary["host"]["completed"] == 1
        assert sum(tracer.tenant_completed.values()) == 3
        assert tracer.stage_histograms["storage"].count == 3

    def test_complete_none_is_noop(self, sim):
        RequestTracer(sim).complete(None)

    @staticmethod
    def _live_requests_after(duration_ns):
        """Traced completions and the IORequest objects still reachable
        after a drained, traced volume run of ``duration_ns``."""
        spec = ScenarioSpec(
            name="memory", geometry=GEO, volume=VolumeSpec(fill=1.0),
            workload=WorkloadSpec(duration_ns=duration_ns, queue_depth=4,
                                  drain=True, tenants=(TenantSpec(
                                      "vol", access="volume",
                                      software_path=False),)))
        session = Session(spec)
        session.run()
        gc.collect()
        live = sum(isinstance(obj, IORequest) for obj in gc.get_objects())
        return sum(session.tracer.tenant_completed.values()), live

    def test_retained_requests_do_not_grow_with_run_length(self):
        # Histograms and counters cover every completion; no completed
        # request object outlives its run, so a million-request run
        # holds no more requests than a short one.
        short_done, short_live = self._live_requests_after(1_000_000)
        long_done, long_live = self._live_requests_after(4_000_000)
        assert long_done > 2 * short_done > 0
        assert long_live <= short_live
        assert long_live < short_done


class TestTraceSampling:
    """Deterministic 1-in-N sampling with unbiased count re-scaling."""

    def test_sample_one_traces_everything(self, sim):
        tracer = RequestTracer(sim, sample=1)
        assert all(tracer.start("read", None, 64) is not None
                   for _ in range(10))

    def test_sample_below_one_rejected(self, sim):
        with pytest.raises(ValueError):
            RequestTracer(sim, sample=0)

    def test_sampling_is_deterministic_per_tracer(self, sim):
        # Two tracers over the same arrival stream make identical
        # keep/skip decisions — the property that lets sampled reruns
        # replay byte-identically.  Skipped arrivals come back as the
        # falsy UNSAMPLED marker, never None (None would let a lower
        # layer open a replacement request for the same arrival).
        a = RequestTracer(sim, sample=3)
        b = RequestTracer(sim, sample=3)
        starts_a = [a.start("read", None, 64) for _ in range(20)]
        pattern_a = [bool(r) for r in starts_a]
        pattern_b = [bool(b.start("read", None, 64)) for _ in range(20)]
        assert pattern_a == pattern_b
        assert all(r is UNSAMPLED for r in starts_a if not r)
        # Exactly every 3rd arrival (starting with the first) is kept.
        assert [i for i, kept in enumerate(pattern_a) if kept] \
            == [0, 3, 6, 9, 12, 15, 18]

    @given(sample=st.integers(min_value=1, max_value=50),
           n=st.integers(min_value=0, max_value=400),
           size=st.integers(min_value=1, max_value=8192))
    @settings(max_examples=60, deadline=None)
    def test_scaled_counts_are_unbiased(self, sample, n, size):
        # Complete every sampled request: the weight-scaled aggregates
        # must land within one sampling stride of the true totals, and
        # histogram mass must equal the scaled completion count.
        sim = Simulator()
        tracer = RequestTracer(sim, sample=sample)
        for _ in range(n):
            tracer.complete(tracer.start("read", None, size))
        estimate = tracer.tenant_completed.get("default", 0)
        assert estimate % sample == 0
        assert abs(estimate - n) < sample
        assert abs(tracer.tenant_bytes.get("default", 0) - n * size) \
            < sample * size
        if estimate:
            assert tracer.tenant_latency["default"].count == estimate

    def test_unsampled_request_is_span_free(self, sim):
        # An UNSAMPLED request turns every downstream span into a no-op
        # and complete() into a no-op: nothing is recorded anywhere.
        tracer = RequestTracer(sim, sample=2)
        first = tracer.start("read", None, 64)
        second = tracer.start("read", None, 64)
        assert first and second is UNSAMPLED

        def proc(sim):
            with StageSpan(sim, second, "storage"):
                yield sim.timeout(10)
            tracer.complete(second)

        sim.run_process(proc(sim))
        assert sum(tracer.tenant_completed.values()) == 0
        assert tracer.stage_histograms == {}


class TestSplitterTracing:
    def test_port_reads_become_traced_requests(self, sim):
        tracer = RequestTracer(sim)
        device = StorageDevice(sim, geometry=GEO)
        splitter = FlashSplitter(sim, device, tracer=tracer)
        port = splitter.add_port(tenant="isp")
        completed = record_completions(tracer)

        def proc(sim):
            yield sim.process(port.read_page(PhysAddr()))

        sim.run_process(proc(sim))
        assert sum(tracer.tenant_completed.values()) == 1
        [req] = completed
        assert req.tenant == "isp"
        assert req.kind is IOKind.READ
        # The card charged real stages onto the request.
        assert req.stage_ns("storage") > 0
        assert req.stage_ns("device") > 0
        assert req.total_ns == req.completed_ns - req.issued_ns

    def test_stream_records_reorder_stage(self, sim):
        from repro.flash import FlashServer

        tracer = RequestTracer(sim)
        device = StorageDevice(sim, geometry=GEO)
        splitter = FlashSplitter(sim, device, tracer=tracer)
        server = FlashServer(sim, splitter.add_port(tenant="isp"),
                             queue_depth=4)
        completed = record_completions(tracer)
        addrs = [GEO.striped(i) for i in range(8)]
        out = Store(sim)

        def consumer(sim):
            for _ in range(len(addrs)):
                yield out.get()

        sim.process(server.stream_pages(addrs, out))
        sim.process(consumer(sim))
        sim.run()
        assert sum(tracer.tenant_completed.values()) == len(addrs)
        # Out-of-order completions waited in page buffers: at least one
        # request spent time in the reorder stage, and all have it.
        assert len(completed) == len(addrs)
        assert all("reorder" in r.stages for r in completed)


class TestTracingDoesNotDemoteQoS:
    def test_unspecified_request_priority_falls_back_to_port(self, sim):
        """A request created merely for tracing (priority=None) must be
        scheduled with the configured port priority, so attaching a
        tracer never changes policy outcomes."""
        tracer = RequestTracer(sim)
        device = StorageDevice(sim, geometry=GEO)
        splitter = FlashSplitter(sim, device, policy="priority",
                                 total_in_flight=1, tracer=tracer)
        low = splitter.add_port(tenant="low", priority=0)
        high = splitter.add_port(tenant="high", priority=5)
        order = []

        def holder(sim):
            yield sim.process(low.read_page(PhysAddr(page=0)))
            order.append("holder")

        def low_waiter(sim):
            yield sim.timeout(1)
            yield sim.process(low.read_page(PhysAddr(page=1)))
            order.append("low")

        def high_waiter(sim):
            yield sim.timeout(2)
            # Mimic the cluster: a pre-created traced request with no
            # explicit QoS, passed down into the port.
            req = tracer.start("read", PhysAddr(page=2), 64,
                               tenant="high")
            assert req.priority is None
            yield sim.process(high.read_page(PhysAddr(page=2),
                                             request=req))
            tracer.complete(req)
            order.append("high")

        sim.process(holder(sim))
        sim.process(low_waiter(sim))
        sim.process(high_waiter(sim))
        sim.run()
        assert order == ["holder", "high", "low"]

    def test_traced_write_charges_cmd_overhead_to_storage(self, sim):
        """Write attribution matches the documented taxonomy: command
        overhead + program time are 'storage', transfers are 'device'."""
        tracer = RequestTracer(sim)
        device = StorageDevice(sim, geometry=GEO)
        splitter = FlashSplitter(sim, device, tracer=tracer)
        port = splitter.add_port(tenant="host")
        completed = record_completions(tracer)

        def proc(sim):
            yield sim.process(port.write_page(PhysAddr(), b"w"))

        sim.run_process(proc(sim))
        [req] = completed
        card = device.cards[0]
        assert req.stage_ns("storage") == (
            card.timing.cmd_overhead_ns + card.timing.t_prog_ns)
        assert req.stage_ns("device") > 0


class TestFigure12Reconciliation:
    """The tracer's Figure 12 split reconciles with the request ledger."""

    BENCH_GEO = FlashGeometry(buses_per_card=8, chips_per_bus=8,
                              blocks_per_chip=16, pages_per_block=32,
                              page_size=8192, cards_per_node=2)

    def _run(self, path):
        sim = Simulator()
        tracer = RequestTracer(sim)
        cluster = BlueDBMCluster(
            sim, 3, node_kwargs=dict(geometry=self.BENCH_GEO),
            tracer=tracer)
        completed = record_completions(tracer)
        addr = PhysAddr(node=1, page=3)
        cluster.nodes[1].device.store.program(addr, b"remote page data")
        access = (cluster.isp_remote_flash if path == "ISP-F"
                  else cluster.host_remote_flash)
        sim.run_process(access(0, addr))
        assert sum(tracer.tenant_completed.values()) == 1
        components = tracer.figure12_components(completed[0])
        assert sum(components.values()) == completed[0].total_ns
        return cluster, components

    def test_isp_f_has_no_software_stage(self):
        _, components = self._run("ISP-F")
        assert components["software"] == 0

    def test_h_f_software_matches_cpu_and_rpc(self):
        cluster, components = self._run("H-F")
        host = cluster.nodes[0].host_config
        assert components["software"] == (
            host.software_request_ns + host.rpc_ns) > 0

    def test_overlapping_spans_raise(self):
        """Software and storage spans over the same 100 ns claim 200 ns
        of a 100 ns request: the residual is negative, not clamped."""
        req = IORequest("read", None, 64, issued_ns=0)
        req.enter("software", 0)
        req.enter("storage", 0)
        req.exit("software", 100)
        req.exit("storage", 100)
        req.completed_ns = 100
        with pytest.raises(ValueError, match="exceed its total 100 ns"):
            RequestTracer.figure12_components(req)
