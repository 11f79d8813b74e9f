"""Steady-state GC: write amplification and victim p99 vs fill level.

Spec + assertions only (measurement: ``repro run gc_steady``).  A
random-overwrite volume tenant churns a prefilled volume; greedy GC
relocates through the dedicated ``volume-gc`` port; a QoS-protected
foreground reader measures the collateral damage.  Write amplification
must exceed 1 and rise monotonically with fill level under every
policy; weighted fair share must bound victim p99 below FIFO's.

The token-bucket rows equal the FIFO rows: GC moves about 30 MB/s at
fill 0.9, so the 200 MB/s ``volume-gc`` cap never binds and no other
tenant is capped.  ``benchmarks/test_qos_gc.py`` covers caps that bind.
"""

from conftest import run_registered

from repro.experiments.volume import GC_FILLS, GC_POLICIES


def test_gc_steady_wa_and_victim_p99(benchmark, report_tables):
    result = run_registered(benchmark, "gc_steady")
    report_tables(result)
    policies = result.metrics["policies"]
    baseline_p99 = result.metrics["baseline"]["victim"]["p99_ns"]

    for policy in GC_POLICIES:
        by_fill = policies[policy]
        was = [by_fill[fill]["write_amplification"] for fill in GC_FILLS]
        # GC ran and charged the writer: WA > 1 at every fill level,
        # strictly increasing with fill (fuller volume -> more valid
        # pages per victim block -> more relocation per reclaimed page).
        assert all(wa > 1.0 for wa in was), (policy, was)
        assert was == sorted(was) and len(set(was)) == len(was), (
            policy, was)
        for fill in GC_FILLS:
            assert by_fill[fill]["volume"]["gc_runs"] > 0
            # GC + write churn cost the victim something vs baseline.
            assert (by_fill[fill]["victim"]["p99_ns"] > baseline_p99)

    # Weighted fair share protects the victim better than FIFO at
    # every fill level.
    for fill in GC_FILLS:
        assert (policies["wfq"][fill]["victim"]["p99_ns"]
                < policies["fifo"][fill]["victim"]["p99_ns"])
