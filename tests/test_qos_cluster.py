"""End-to-end cluster QoS: remote tenants, one contended splitter.

Session-level tests of the ``qos_cluster`` scenario family (scaled
down for tier-1 speed): three remote tenants issue ISP-F reads against
node 0's splitter over the integrated network.  Beyond the policy
behavior (covered by the benchmark), these tests pin the *accounting*:
the per-tenant byte counts must agree everywhere they are reported —
worker completion counters, the request tracer, node 0's splitter
bandwidth ledger, and the network layer's payload-byte counters.
"""

import pytest

from repro.api import Session
from repro.experiments.qos import CLUSTER_WEIGHTS, qos_cluster_scenario

DURATION_NS = 4_000_000
PAGE = 8192


@pytest.fixture(scope="module")
def wfq_run():
    session = Session(qos_cluster_scenario("wfq", duration_ns=DURATION_NS))
    result = session.run()
    return session, result


def test_remote_tenant_bandwidth_reconciles_everywhere(wfq_run):
    """completions x page == tracer bytes == splitter ledger bytes."""
    session, result = wfq_run
    ledger = session.node.splitter.bandwidth
    for remote in CLUSTER_WEIGHTS:
        name = f"remote-{remote}"
        label = f"isp-n{remote}"
        completed = result.metrics["completions"][name]
        assert completed > 0
        assert result.tenant_stats[name]["bytes"] == completed * PAGE
        assert ledger.totals.get(label, 0) == completed * PAGE
        assert (result.metrics["splitter_bandwidth"][0][name]["bytes"]
                == completed * PAGE)


def test_remote_tenant_bytes_match_network_counters(wfq_run):
    """The network layer moved exactly the pages each tenant was served.

    Every ISP-F read returns one page to the source node over its
    response endpoints, so the per-node sum of endpoint
    ``received_bytes`` must equal that tenant's completions x page
    size — remote accounting reconciles with the wire.
    """
    session, result = wfq_run
    network = session.cluster.network
    spec = session.spec
    first_response_ep = 1 + spec.app_endpoints
    for remote in CLUSTER_WEIGHTS:
        name = f"remote-{remote}"
        completed = result.metrics["completions"][name]
        received = sum(
            network.endpoint(remote, ep).received_bytes
            for ep in range(first_response_ep, spec.n_endpoints))
        assert received == completed * PAGE, (
            f"{name}: network delivered {received} B, accounting says "
            f"{completed * PAGE} B")
        # The request direction carries commands, not payload.
        sent = network.endpoint(remote, 0).sent_bytes
        assert sent == completed * 32


def test_wfq_outweighs_fifo_for_heavy_tenant():
    """Even in the scaled-down run, weights shift bandwidth shares."""
    fifo = Session(
        qos_cluster_scenario("fifo", duration_ns=DURATION_NS)).run()
    wfq = Session(
        qos_cluster_scenario("wfq", duration_ns=DURATION_NS)).run()

    def share(result, name):
        total = sum(result.metrics["completions"].values())
        return result.metrics["completions"][name] / total

    # FIFO is weight-blind; wfq moves remote-3 (weight 3) up and
    # remote-1 (weight 1) down.
    assert abs(share(fifo, "remote-3") - 1 / 3) < 0.05
    assert share(wfq, "remote-3") > share(fifo, "remote-3") + 0.08
    assert share(wfq, "remote-1") < share(fifo, "remote-1") - 0.08


def test_token_bucket_caps_remote_tenants():
    """Each remote tenant's bytes <= rate x elapsed + one burst."""
    from repro.experiments.qos import CLUSTER_BURST_KB, CLUSTER_RATES_MBPS

    result = Session(qos_cluster_scenario(
        "token-bucket", duration_ns=DURATION_NS)).run()
    for remote, rate_mbps in CLUSTER_RATES_MBPS.items():
        name = f"remote-{remote}"
        served = result.tenant_stats[name]["bytes"]
        cap = (rate_mbps * 1e6 / 1e9 * result.elapsed_ns
               + CLUSTER_BURST_KB * 1024)
        assert served <= cap, (
            f"{name} exceeded its cap: {served:.0f} > {cap:.0f}")
        assert served > 0
