"""Real volume GC under every admission policy: victim p99 per policy.

Spec + assertions only: :func:`repro.experiments.qos.qos_gc_spec` takes
the ``gc_steady`` scenario at fill 0.9 — two random-overwrite volume
writers whose greedy FTL GC relocates pages through the volume's
dedicated ``volume-gc`` splitter port, beside a hot-set ISP victim
reader — and adds token-bucket caps on the writer and on ``volume-gc``.
The registered ``qos_gc`` experiment runs it under all six policies
plus a writer-less baseline (``repro run qos_gc``).

The expectations:

* weighted fair share (victim weight 4 vs writer 2 and GC 0.5) and
  token-bucket (writer capped at 60 MB/s, ``volume-gc`` at 20 MB/s)
  hold the victim's p99 below FIFO's;
* strict priority and EDF (tight victim deadline) protect the victim
  at least as well as round-robin;
* no policy starves GC — every one reaches the watermark and relocates;
* the token buckets honor their byte caps.
"""

from conftest import run_registered

from repro.experiments.qos import (
    GC_BURST_KB,
    GC_POLICIES,
    VOLUME_GC_RATE_MBPS,
    WRITER_RATE_MBPS,
)


def test_qos_gc_background_tenant(benchmark, report_tables):
    result = run_registered(benchmark, "qos_gc")
    report_tables(result)
    measured = result.metrics["policies"]

    # GC makes progress under every policy (no starvation), and the
    # victim is served under every policy.
    for policy in GC_POLICIES:
        assert measured[policy]["volume"]["gc_runs"] > 0, (
            f"{policy} starved gc")
        assert measured[policy]["victim"]["completed"] > 0, (
            f"{policy} starved the victim")

    # wfq and token-bucket bound the victim's p99 below FIFO's.
    fifo_p99 = measured["fifo"]["victim"]["p99_ns"]
    for policy in ("wfq", "token-bucket"):
        victim = measured[policy]["victim"]
        assert victim["p99_ns"] < fifo_p99, (
            f"{policy} does not bound victim p99: "
            f"{victim['p99_ns']:.0f} vs fifo {fifo_p99:.0f}")

    # Priority and EDF protect at least as well as round-robin.
    rr_p99 = measured["rr"]["victim"]["p99_ns"]
    for policy in ("priority", "edf"):
        assert measured[policy]["victim"]["p99_ns"] <= rr_p99

    # Token bucket honors both byte caps: bytes through the splitter
    # never exceed rate x elapsed + one burst.
    bucket = measured["token-bucket"]
    for key, rate in (("writer_bandwidth", WRITER_RATE_MBPS),
                      ("gc_bandwidth", VOLUME_GC_RATE_MBPS)):
        cap = rate * 1e6 / 1e9 * bucket["elapsed_ns"] + GC_BURST_KB * 1024
        assert bucket[key]["bytes"] <= cap, (
            f"{key} exceeded its token-bucket cap: "
            f"{bucket[key]['bytes']:.0f} B > {cap:.0f} B")
