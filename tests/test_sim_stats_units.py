"""Tests for stats collectors and unit conversions."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import (
    BandwidthLedger,
    Counter,
    LatencyHistogram,
    Simulator,
    UtilizationTracker,
    units,
)


@pytest.fixture
def sim():
    return Simulator()


class TestUnits:
    def test_us_roundtrip(self):
        assert units.to_us(1500) == 1.5

    def test_ms_and_seconds(self):
        assert units.seconds(1) == 1_000_000_000
        assert units.to_ms(500_000) == 0.5
        assert units.to_s(2_000_000_000) == 2.0

    def test_gbps_conversion(self):
        # 10 Gbps = 1.25 bytes per ns.
        assert units.gbps_to_bytes_per_ns(10) == 1.25

    def test_transfer_ns(self):
        # 8KB at 1.25 B/ns -> 6400 ns.
        assert units.transfer_ns(8000, 1.25) == 6400

    def test_transfer_ns_minimum_one(self):
        assert units.transfer_ns(1, 1000.0) == 1

    def test_transfer_zero_bytes(self):
        assert units.transfer_ns(0, 1.0) == 0

    def test_transfer_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            units.transfer_ns(10, 0)

    def test_bandwidth_gbytes(self):
        assert units.bandwidth_gbytes(8000, 8000) == 1.0

    def test_bandwidth_gbps(self):
        assert units.bandwidth_gbps(1250, 1000) == 10.0

    def test_bandwidth_zero_window(self):
        assert units.bandwidth_gbytes(100, 0) == 0.0

    @given(st.integers(min_value=10_000, max_value=10**9),
           st.floats(min_value=0.01, max_value=100))
    def test_transfer_roundtrip_property(self, num_bytes, rate):
        # Transfers of >=10KB span >=100 ns at any modeled rate, so the
        # 1-ns rounding quantum contributes <=1% relative error.
        ns = units.transfer_ns(num_bytes, rate)
        observed = units.bandwidth_gbytes(num_bytes, ns)
        assert observed == pytest.approx(rate, rel=0.01)


class TestCounter:
    def test_add_and_reset(self):
        c = Counter("ops")
        c.add()
        c.add(4)
        assert c.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().add(-1)


class TestLatencyHistogram:
    """The log2-bucketed histogram behind all tracer statistics.

    Until now it was only exercised indirectly through the figure
    benchmarks; these tests pin bucket-edge placement, percentile
    interpolation and merge directly.
    """

    def test_bucket_edges_are_powers_of_two(self):
        # Bucket k covers [2^(k-1), 2^k); index = bit_length(sample).
        hist = LatencyHistogram()
        for sample, bucket in [(0, 0), (1, 1), (2, 2), (3, 2), (4, 3),
                               (7, 3), (8, 4), (1023, 10), (1024, 11)]:
            before = hist.buckets[bucket]
            hist.record(sample)
            assert hist.buckets[bucket] == before + 1, (
                f"sample {sample} should land in bucket {bucket}")

    def test_edge_samples_straddle_buckets(self):
        # 2^k - 1 and 2^k land in adjacent buckets for every k.
        for k in range(1, 20):
            hist = LatencyHistogram()
            hist.record(2 ** k - 1)
            hist.record(2 ** k)
            assert hist.buckets[k] == 1
            assert hist.buckets[k + 1] == 1

    def test_huge_sample_clamps_to_max_bucket(self):
        hist = LatencyHistogram()
        hist.record(2 ** 70)
        assert hist.buckets[LatencyHistogram.MAX_BUCKET] == 1
        assert hist.max_ns == 2 ** 70

    def test_single_value_percentiles_are_exact(self):
        hist = LatencyHistogram()
        for _ in range(5):
            hist.record(777)
        assert hist.percentile(50) == 777.0
        assert hist.percentile(99) == 777.0
        assert hist.mean == 777.0

    def test_percentile_interpolates_within_bucket(self):
        # 100 samples spread through bucket [1024, 2048): p50 must land
        # inside the bucket, between the observed extremes.
        hist = LatencyHistogram()
        for i in range(100):
            hist.record(1024 + i * 10)
        p50, p99 = hist.percentile(50), hist.percentile(99)
        assert 1024 <= p50 <= 2014
        assert p50 < p99 <= 2014
        # Interpolation is linear in the clamped bracket.
        assert p50 == pytest.approx(1024 + 0.5 * (2015 - 1024), rel=0.02)

    def test_percentile_bracket_is_at_most_factor_two(self):
        # Whatever the mix, a percentile lies within the histogram's
        # observed range and its bucket's factor-of-two bracket.
        hist = LatencyHistogram()
        samples = [3, 50, 51, 900, 6000, 6001, 6002]
        for s in samples:
            hist.record(s)
        for p in (1, 25, 50, 75, 99):
            value = hist.percentile(p)
            assert hist.min_ns <= value <= hist.max_ns + 1

    @given(st.lists(st.integers(0, 10**9), min_size=1))
    def test_percentiles_monotone_and_bounded(self, samples):
        hist = LatencyHistogram()
        for s in samples:
            hist.record(s)
        assert hist.percentile(10) <= hist.percentile(50) \
            <= hist.percentile(99)
        assert hist.min_ns <= hist.percentile(50) <= hist.max_ns + 1

    def test_merge_equals_recording_into_one(self):
        # Per-stage histograms are merged for overall latency; merging
        # must be exactly equivalent to having recorded every sample
        # into a single histogram.
        left, right, combined = (LatencyHistogram() for _ in range(3))
        a_samples = [1, 5, 5, 300, 2**20]
        b_samples = [0, 7, 4096, 4097]
        for s in a_samples:
            left.record(s)
            combined.record(s)
        for s in b_samples:
            right.record(s)
            combined.record(s)
        left.merge(right)
        assert left.buckets == combined.buckets
        assert left.count == combined.count
        assert left.total_ns == combined.total_ns
        assert left.min_ns == combined.min_ns
        assert left.max_ns == combined.max_ns
        for p in (50, 99):
            assert left.percentile(p) == combined.percentile(p)

    def test_merge_into_empty_and_with_empty(self):
        empty, filled = LatencyHistogram(), LatencyHistogram()
        filled.record(123)
        empty.merge(filled)
        assert empty.summary() == filled.summary()
        filled.merge(LatencyHistogram())
        assert empty.summary() == filled.summary()

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1)


class TestBandwidthLedger:
    """Windowed per-tenant byte accounting (QoS admission stage)."""

    def test_totals_and_windows(self, sim):
        ledger = BandwidthLedger(sim, window_ns=1000)

        def proc(sim):
            ledger.record("a", 100)
            ledger.record("b", 10)
            yield sim.timeout(2500)   # into the third window
            ledger.record("a", 200)
            yield sim.timeout(1000)   # a quieter fourth window
            ledger.record("a", 50)
            ledger.record("a", 60)
            ledger.record("b", 0)

        sim.process(proc(sim))
        sim.run()
        assert ledger.total_bytes("a") == 410
        assert ledger.total_bytes("b") == 10
        # The peak is the busiest single window, not the latest one.
        assert ledger.peak_window_bytes("a") == 200
        assert ledger.peak_window_bytes("b") == 10
        assert ledger.peak_window_bytes("missing") == 0

    def test_peak_sums_within_one_window(self, sim):
        ledger = BandwidthLedger(sim, window_ns=1000)

        def proc(sim):
            ledger.record("a", 100)
            yield sim.timeout(999)    # still window 0
            ledger.record("a", 100)
            yield sim.timeout(1)      # window 1 starts afresh
            ledger.record("a", 150)

        sim.run_process(proc(sim))
        assert ledger.peak_window_bytes("a") == 200

    def test_rate_over_elapsed(self, sim):
        ledger = BandwidthLedger(sim, window_ns=1000)
        ledger.record("t", 8000)
        assert ledger.gbytes_per_sec("t", elapsed_ns=8000) == \
            pytest.approx(1.0)

    def test_summary_is_per_tenant(self, sim):
        ledger = BandwidthLedger(sim, window_ns=1000)
        ledger.record("t", 4096)
        summary = ledger.summary(elapsed_ns=4096)
        assert summary["t"]["bytes"] == 4096.0
        assert summary["t"]["peak_window_bytes"] == 4096.0
        assert summary["t"]["gbytes_per_sec"] == pytest.approx(1.0)

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            BandwidthLedger(sim, window_ns=0)
        ledger = BandwidthLedger(sim)
        with pytest.raises(ValueError):
            ledger.record("t", -1)


class TestUtilizationTracker:
    def test_busy_time_accumulates(self):
        tracker = UtilizationTracker("cpu")
        tracker.busy(250)
        tracker.busy(750)
        assert tracker.busy_ns == 1000
        with pytest.raises(ValueError):
            tracker.busy(-1)
