"""Figure 11: integrated network bandwidth/latency, and the Section 6.3
ring analytics.

The per-hop table now carries per-message delivery mean and p99 next to
the single-probe latency (the ROADMAP "p99 columns next to the means"
item): every streamed message's send→receive time feeds a
:class:`~repro.sim.LatencyHistogram`, so queueing inside the stream —
not just the cold first flit — is visible.
"""

from __future__ import annotations

from ..api import RunResult, experiment
from ..network import StorageNetwork, line, ring
from ..sim import LatencyHistogram, Simulator, units

MAX_HOPS = 5
STREAM_MESSAGES = 60
MESSAGE_BYTES = 512


def measure_hops(hops: int):
    """One stream over ``hops`` hops ->
    (payload_gbps, latency_us, per-message LatencyHistogram)."""
    sim = Simulator()
    net = StorageNetwork(sim, line(hops + 1), n_endpoints=1)
    done = {}
    sent = []
    stream = LatencyHistogram(f"stream-{hops}hops")

    def sender(sim):
        # Latency probe: one small (single-flit) message first.
        yield from net.endpoint(0, 0).send(hops, "probe", 16)
        for i in range(STREAM_MESSAGES):
            sent.append(sim.now)
            yield from net.endpoint(0, 0).send(hops, i, MESSAGE_BYTES)

    def receiver(sim):
        yield from net.endpoint(hops, 0).receive()
        done["latency"] = sim.now
        t0 = sim.now
        for i in range(STREAM_MESSAGES):
            yield from net.endpoint(hops, 0).receive()
            stream.record(sim.now - sent[i])
        done["stream_ns"] = sim.now - t0

    sim.process(sender(sim))
    sim.process(receiver(sim))
    sim.run()
    gbps = units.bandwidth_gbps(
        STREAM_MESSAGES * MESSAGE_BYTES, done["stream_ns"])
    return gbps, units.to_us(done["latency"]), stream


@experiment("fig11", title="network bandwidth/latency vs hops",
            produces="benchmarks/test_fig11_network.py",
            label="Figure 11")
def run_fig11() -> RunResult:
    hops = list(range(1, MAX_HOPS + 1))
    measured = [measure_hops(h) for h in hops]
    gbps = [m[0] for m in measured]
    latency = [m[1] for m in measured]
    mean_us = [units.to_us(m[2].mean) for m in measured]
    p99_us = [units.to_us(m[2].percentile(99)) for m in measured]

    result = RunResult("fig11")
    result.series = {"hops": hops,
                     "bandwidth_gbps": gbps,
                     "latency_us": latency,
                     "stream_mean_us": mean_us,
                     "stream_p99_us": p99_us}
    result.add_table(
        "fig11_network",
        "Figure 11: integrated network performance "
        "(probe = cold single-flit latency; mean/p99 = per-message "
        f"delivery over the {STREAM_MESSAGES}-message stream)",
        ["hops", "bandwidth (Gb/s, paper 8.2)",
         "latency (us, paper 0.48/hop)", "mean (us)", "p99 (us)"],
        [[h, round(g, 2), round(l, 2), round(m, 2), round(p, 2)]
         for h, g, l, m, p in zip(hops, gbps, latency, mean_us, p99_us)])
    result.metrics = {"gbps": gbps, "latency_us": latency,
                      "stream_mean_us": mean_us,
                      "stream_p99_us": p99_us}
    return result


@experiment("fig11_ring", title="20-node 4-lane ring analytics",
            produces="benchmarks/test_fig11_network.py",
            label="Figure 11")
def run_fig11_ring() -> RunResult:
    sim = Simulator()
    net = StorageNetwork(sim, ring(20, lanes=4), n_endpoints=4)
    avg_hops = net.average_hop_count()
    avg_latency_us = avg_hops * units.to_us(net.config.hop_latency_ns)
    ring_gbps = 4 * net.config.payload_gbps  # 4 lanes across the cut

    result = RunResult("fig11_ring")
    result.add_table(
        "fig11_ring_analytics",
        "Section 6.3: 20-node 4-lane ring analytics",
        ["Metric", "Measured", "Paper"],
        [["average hops to remote node", f"{avg_hops:.2f}", "5"],
         ["average latency (us)", f"{avg_latency_us:.2f}", "2.5"],
         ["ring throughput (Gb/s)", f"{ring_gbps:.1f}", "32.8"]])
    result.metrics = {"avg_hops": avg_hops,
                      "avg_latency_us": avg_latency_us,
                      "ring_gbps": ring_gbps}
    return result
