"""Queue-depth sweep: async host submission saturates the card.

Spec + assertions only: :func:`repro.experiments.pipeline.qd_sweep_spec`
builds the scenario (one kernel-bypass host worker keeping the
Session's request window full) and the registered ``qd_sweep``
experiment sweeps queue depth 1→64 (``repro run qd_sweep``).

The paper's premise — single-command latency is ~50 µs, so "multiple
commands must be in flight to saturate the device" — becomes three
shape assertions:

* bandwidth rises monotonically with queue depth (no tolerance games:
  every doubling must not lose throughput);
* the deep-queue end is several times the synchronous (depth 1) end;
* latency pays for it: mean per-request latency grows with depth while
  throughput does, i.e. the sweep trades latency for bandwidth instead
  of getting either for free.
"""

from conftest import run_registered

from repro.experiments.pipeline import QD_VALUES


def test_qd_sweep(benchmark, report_tables):
    result = run_registered(benchmark, "qd_sweep")
    report_tables(result)
    depths = result.series["queue_depth"]
    bandwidths = result.series["bandwidth_gbs"]
    means = result.series["mean_ns"]
    assert tuple(depths) == QD_VALUES

    # Monotone saturation curve: deeper queues never lose bandwidth.
    for shallow, deep, prev, cur in zip(depths, depths[1:],
                                        bandwidths, bandwidths[1:]):
        assert cur >= prev, (
            f"bandwidth fell from {prev:.3f} GB/s at qd={shallow} to "
            f"{cur:.3f} GB/s at qd={deep}")

    # The async path buys a large factor over the synchronous loop.
    assert bandwidths[-1] >= 4 * bandwidths[0], (
        f"qd={depths[-1]} should be >= 4x qd=1: "
        f"{bandwidths[-1]:.3f} vs {bandwidths[0]:.3f} GB/s")

    # Queueing is the price: per-request latency grows with depth.
    assert means[-1] > means[0], (
        "deep queues must show queueing delay over the synchronous loop")

    # Every depth completed work and the stats reconcile.
    for depth in QD_VALUES:
        stats = result.metrics["by_depth"][depth]
        assert stats["completed"] > 0, f"qd={depth} completed nothing"
