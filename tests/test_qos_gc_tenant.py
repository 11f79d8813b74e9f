"""End-to-end GC-under-QoS tests: real volume GC vs victim p99.

Tier-1 run of the ``qos_gc`` experiment at a reduced window: a
random-overwrite volume writer at fill 0.9 drives greedy FTL GC, whose
relocations ride the volume's dedicated ``volume-gc`` splitter port,
while a QoS-protected ISP tenant reads a hot set.  FIFO lets the write
+ GC churn dictate the victim's p99; wfq and token-bucket bound it,
and no policy starves GC.
"""

import pytest

from repro.api import Session
from repro.experiments.qos import (
    GC_BURST_KB,
    GC_POLICIES,
    VOLUME_GC_RATE_MBPS,
    WRITER_RATE_MBPS,
    qos_gc_spec,
    run_qos_gc,
)
from repro.experiments.volume import GC_GEOMETRY

DURATION_NS = 30_000_000


@pytest.fixture(scope="module")
def result():
    """Baseline + all six policies, shared."""
    return run_qos_gc(duration_ns=DURATION_NS)


def _victim_p99(result, policy):
    return result.metrics["policies"][policy]["victim"]["p99_ns"]


def test_gc_degrades_victim_p99_under_fifo(result):
    baseline = result.metrics["baseline"]["victim"]["p99_ns"]
    assert _victim_p99(result, "fifo") > baseline


@pytest.mark.parametrize("policy", ["wfq", "token-bucket"])
def test_victim_p99_bounded_under_wfq_and_token_bucket(result, policy):
    assert _victim_p99(result, policy) < _victim_p99(result, "fifo"), (
        f"{policy} does not bound the victim: "
        f"{_victim_p99(result, policy):.0f} vs fifo "
        f"{_victim_p99(result, 'fifo'):.0f}")


@pytest.mark.parametrize("policy", GC_POLICIES)
def test_gc_runs_under_every_policy(result, policy):
    # GC is shaped, never starved: every policy reaches the watermark
    # and relocates inside the window.
    measured = result.metrics["policies"][policy]
    assert measured["volume"]["gc_runs"] > 0
    assert measured["gc_bandwidth"]["bytes"] > 0


def test_gc_honors_its_token_bucket_cap(result):
    bucket = result.metrics["policies"]["token-bucket"]
    burst = GC_BURST_KB * 1024
    for key, rate in (("writer_bandwidth", WRITER_RATE_MBPS),
                      ("gc_bandwidth", VOLUME_GC_RATE_MBPS)):
        cap = rate * 1e6 / 1e9 * bucket["elapsed_ns"] + burst
        assert 0 < bucket[key]["bytes"] <= cap, (key, bucket[key], cap)


def test_gc_tenant_accounting_includes_reads_and_writes(result):
    """``volume-gc`` bandwidth counts both halves of every relocation.

    Each GC move — including a stale one, whose source was overwritten
    mid-relocation — reads one page and programs one page through the
    ``volume-gc`` port.
    """
    for policy in GC_POLICIES:
        measured = result.metrics["policies"][policy]
        volume = measured["volume"]
        moves = volume["gc_moved_pages"] + volume["gc_stale_moves"]
        assert measured["gc_bandwidth"]["bytes"] == (
            2 * moves * GC_GEOMETRY.page_size)


def test_gc_port_is_separate_from_fixed_ports():
    """GC relocation has its own low-priority splitter port."""
    session = Session(qos_gc_spec("fifo", duration_ns=100_000))
    ports = session.node.splitter.ports
    assert [p.tenant for p in ports[:3]] == ["isp", "host", "net"]
    gc_port, = [p for p in ports if p.tenant == "volume-gc"]
    assert gc_port.priority == 0
