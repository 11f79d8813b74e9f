"""End-to-end tests for links, switches, endpoints, and the fabric."""

import pytest

from repro.network import (
    EthernetFabric,
    NetworkConfig,
    Packet,
    SerialLink,
    StorageNetwork,
    line,
    ring,
)
from repro.sim import Process, Simulator, units

CONFIG = NetworkConfig()


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def spawned(monkeypatch):
    """A list that grows by one for every ``Process`` built."""
    built = []
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    return built


class TestNetworkConfig:
    def test_paper_efficiency(self):
        # 16B flits with 3.5B overhead -> ~82% payload efficiency,
        # i.e. 8.2 Gbps on a 10 Gbps link (Figure 11).
        assert CONFIG.protocol_efficiency == pytest.approx(0.82, abs=0.01)
        assert CONFIG.payload_gbps == pytest.approx(8.2, abs=0.1)

    def test_wire_bytes_rounds_up_to_flits(self):
        assert CONFIG.wire_bytes(1) == CONFIG.wire_bytes(16)
        assert CONFIG.wire_bytes(17) == 2 * (16 + 3.5)

    def test_serialize_time_512b(self):
        # 512B payload = 32 flits = 624 wire bytes at 1.25 B/ns.
        assert CONFIG.serialize_ns(512) == pytest.approx(499, abs=1)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(link_gbps=0)
        with pytest.raises(ValueError):
            NetworkConfig(max_packet_payload=4)
        with pytest.raises(ValueError):
            NetworkConfig(link_credits=0)

    def test_packet_validation(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, endpoint=0, payload=None, payload_bytes=-1)


class TestSerialLink:
    def test_transmit_receive_latency(self, sim):
        link = SerialLink(sim, CONFIG)

        def proc(sim):
            yield sim.process(link.transmit(
                Packet(src=0, dst=1, endpoint=0, payload="x",
                       payload_bytes=16)))
            packet = yield sim.process(link.receive())
            return (sim.now, packet.payload)

        now, payload = sim.run_process(proc(sim))
        assert payload == "x"
        # One flit serialization (~16 ns) + 480 ns hop latency.
        assert now == CONFIG.serialize_ns(16) + CONFIG.hop_latency_ns

    def test_uncontended_packet_costs_five_tickets(self, sim):
        """Credit take, tx grant, serialization timer, propagation timer
        and the receiver's wake: five scheduling tickets, no process."""
        link = SerialLink(sim, CONFIG)

        def proc():
            start = sim._eid
            yield from link.transmit(
                Packet(src=0, dst=1, endpoint=0, payload="x",
                       payload_bytes=16))
            yield from link.receive()
            return sim._eid - start

        assert sim.run_process(proc()) == 5

    def test_credits_block_when_receiver_stalls(self, sim):
        link = SerialLink(sim, CONFIG)
        sent = []

        def sender(sim):
            for i in range(CONFIG.link_credits + 4):
                yield sim.process(link.transmit(
                    Packet(src=0, dst=1, endpoint=0, payload=i,
                           payload_bytes=16)))
                sent.append(i)

        sim.process(sender(sim))
        sim.run()
        # Only `link_credits` packets could be sent; no packet was lost.
        assert len(sent) == CONFIG.link_credits
        assert len(link._rx_buffer.items) == CONFIG.link_credits

    def test_draining_restores_credits(self, sim):
        link = SerialLink(sim, CONFIG)
        received = []

        def sender(sim):
            for i in range(CONFIG.link_credits + 4):
                yield sim.process(link.transmit(
                    Packet(src=0, dst=1, endpoint=0, payload=i,
                           payload_bytes=16)))

        def receiver(sim):
            for _ in range(CONFIG.link_credits + 4):
                packet = yield sim.process(link.receive())
                received.append(packet.payload)

        sim.process(sender(sim))
        sim.process(receiver(sim))
        sim.run()
        assert received == list(range(CONFIG.link_credits + 4))
        assert link._credits.credits == CONFIG.link_credits


class TestFabricMessaging:
    def test_one_hop_small_message_latency(self, sim):
        net = StorageNetwork(sim, line(2), n_endpoints=1)

        def receiver(sim):
            message = yield sim.process(net.endpoint(1, 0).receive())
            return (sim.now, message.src, message.payload)

        def sender(sim):
            yield sim.process(net.endpoint(0, 0).send(1, "ping", 16))

        sim.process(sender(sim))
        now, src, payload = sim.run_process(receiver(sim))
        assert (src, payload) == (0, "ping")
        # ~0.5 us per hop (Figure 11's 0.48 us plus serialization).
        assert now == pytest.approx(500, abs=100)

    def test_latency_scales_linearly_with_hops(self, sim):
        net = StorageNetwork(sim, line(6), n_endpoints=1)
        arrivals = {}

        def receiver(sim, node):
            yield sim.process(net.endpoint(node, 0).receive())
            arrivals[node] = sim.now

        def sender(sim, node):
            yield sim.process(net.endpoint(0, 0).send(node, "x", 16))

        for node in (1, 3, 5):
            sim.process(receiver(sim, node))
            sim.process(sender(sim, node))
        sim.run()
        per_hop_3 = arrivals[3] / 3
        per_hop_5 = arrivals[5] / 5
        assert per_hop_3 == pytest.approx(arrivals[1], rel=0.15)
        assert per_hop_5 == pytest.approx(arrivals[1], rel=0.15)

    def test_fifo_order_per_endpoint(self, sim):
        net = StorageNetwork(sim, ring(5), n_endpoints=2)
        received = []

        def sender(sim):
            for i in range(20):
                yield sim.process(net.endpoint(0, 0).send(3, i, 64))

        def receiver(sim):
            for _ in range(20):
                message = yield sim.process(net.endpoint(3, 0).receive())
                received.append(message.payload)

        sim.process(sender(sim))
        sim.process(receiver(sim))
        sim.run()
        assert received == list(range(20))

    def test_large_message_chunked_and_reassembled(self, sim):
        net = StorageNetwork(sim, line(3), n_endpoints=1)
        payload = b"A" * 8192

        def sender(sim):
            yield sim.process(net.endpoint(0, 0).send(2, payload, 8192))

        def receiver(sim):
            message = yield sim.process(net.endpoint(2, 0).receive())
            return message

        sim.process(sender(sim))
        message = sim.run_process(receiver(sim))
        assert message.payload == payload
        assert message.payload_bytes == 8192

    def test_loopback_send_to_self(self, sim):
        net = StorageNetwork(sim, line(2), n_endpoints=1)

        def proc(sim):
            yield sim.process(net.endpoint(0, 0).send(0, "local", 16))
            message = yield sim.process(net.endpoint(0, 0).receive())
            return (sim.now, message.payload)

        now, payload = sim.run_process(proc(sim))
        assert payload == "local"
        assert now < CONFIG.hop_latency_ns  # never touches the wire

    def test_single_stream_payload_bandwidth(self, sim):
        """Figure 11: ~8.2 Gbps payload per stream regardless of hops."""
        net = StorageNetwork(sim, line(4), n_endpoints=1)
        n_messages, size = 50, 512
        done = []

        def sender(sim):
            for i in range(n_messages):
                yield sim.process(net.endpoint(0, 0).send(3, i, size))

        def receiver(sim):
            for _ in range(n_messages):
                yield sim.process(net.endpoint(3, 0).receive())
            done.append(sim.now)

        sim.process(sender(sim))
        sim.process(receiver(sim))
        sim.run()
        gbps = units.bandwidth_gbps(n_messages * size, done[0])
        assert 7.0 < gbps < 8.5

    def test_parallel_lanes_scale_aggregate_bandwidth(self, sim):
        """Two endpoints on two lanes nearly double the throughput."""
        n_messages, size = 40, 512

        def run_streams(n_streams):
            sim = Simulator()
            net = StorageNetwork(sim, line(2, lanes=2), n_endpoints=2)
            done = []

            def sender(sim, ep):
                for i in range(n_messages):
                    yield sim.process(net.endpoint(0, ep).send(1, i, size))

            def receiver(sim, ep):
                for _ in range(n_messages):
                    yield sim.process(net.endpoint(1, ep).receive())
                done.append(sim.now)

            for ep in range(n_streams):
                sim.process(sender(sim, ep))
                sim.process(receiver(sim, ep))
            sim.run()
            return max(done)

        one = run_streams(1)
        two = run_streams(2)
        # Two streams move twice the data in nearly the same time.
        assert two < one * 1.3

    def test_no_process_per_packet(self, spawned):
        """A k-packet message over an idle 1-hop link spawns the same
        processes for k = 1 and k = 8: propagation is a timer."""

        def processes_for(k):
            sim = Simulator()
            net = StorageNetwork(sim, line(2), n_endpoints=1)
            received = []

            def receiver():
                message = yield from net.endpoint(1, 0).receive()
                received.append(message.payload_bytes)

            spawned.clear()
            sim.process(receiver())
            sim.run_process(net.endpoint(0, 0).send(
                1, "x", k * CONFIG.max_packet_payload))
            sim.run()
            assert received == [k * CONFIG.max_packet_payload]
            return len(spawned)

        assert processes_for(1) == processes_for(8) == 2

    def test_unknown_endpoint_rejected(self, sim):
        net = StorageNetwork(sim, line(2), n_endpoints=1)
        with pytest.raises(KeyError):
            net.endpoint(0, 7)

    def test_hop_count_and_average(self, sim):
        net = StorageNetwork(sim, ring(20), n_endpoints=1)
        hop = CONFIG.hop_latency_ns
        assert net.propagation_ns(0, 10) == 10 * hop
        assert net.propagation_ns(0, 19) == hop
        assert 5.0 <= net.average_hop_count() <= 5.5
        assert net.propagation_ns(3, 3) == 0


class TestEndToEndFlowControl:
    """Section 3.2.3's end-to-end flow control is not modelled: a
    receiver that never drains blocks the network through link-level
    credit backpressure."""

    def test_without_e2e_network_backs_up(self, sim):
        net = StorageNetwork(sim, line(2), n_endpoints=1)
        sender_ep = net.endpoint(0, 0)
        receiver_ep = net.endpoint(1, 0)

        def sender(sim):
            for i in range(100):
                yield sim.process(sender_ep.send(1, i, 16))

        sim.process(sender(sim))
        sim.run()
        # The endpoint queue and the link buffers all filled up: the
        # stall propagated backwards (link-level backpressure), and far
        # fewer than 100 sends completed -- but nothing was dropped.
        assert len(receiver_ep._queue.items) == CONFIG.endpoint_capacity
        assert sender_ep.sent_bytes < 100 * 16


class TestEthernetBaseline:
    def test_rpc_latency_dominates(self, sim):
        eth = EthernetFabric(sim, 2)

        def proc(sim):
            yield sim.process(eth.send(0, 1, "req", 64))
            message = yield sim.process(eth.receive(1))
            return (sim.now, message.payload)

        now, payload = sim.run_process(proc(sim))
        assert payload == "req"
        # ~100x the integrated network's per-hop latency (Section 6.4).
        assert now >= 45 * units.US
        assert now >= 90 * 480
        # Exactly: 10 GbE serialization, then the fixed RPC latency.
        assert now == (units.transfer_ns(64, EthernetFabric.BYTES_PER_NS)
                       + EthernetFabric.RPC_LATENCY_NS)

    def test_fifo_per_destination(self, sim):
        eth = EthernetFabric(sim, 2)
        received = []

        def sender(sim):
            for i in range(10):
                yield sim.process(eth.send(0, 1, i, 1000))

        def receiver(sim):
            for _ in range(10):
                message = yield sim.process(eth.receive(1))
                received.append(message.payload)

        sim.process(sender(sim))
        sim.process(receiver(sim))
        sim.run()
        assert received == list(range(10))

    def test_two_messages_keep_order_without_delivery_process(
            self, sim, spawned):
        eth = EthernetFabric(sim, 2)

        def proc():
            yield from eth.send(0, 1, "first", 1000)
            yield from eth.send(0, 1, "second", 10)
            first = yield from eth.receive(1)
            second = yield from eth.receive(1)
            return [first.payload, second.payload]

        assert sim.run_process(proc()) == ["first", "second"]
        assert len(spawned) == 1        # the driver itself

    def test_invalid_node_rejected(self, sim):
        eth = EthernetFabric(sim, 2)
        with pytest.raises(ValueError):
            sim.run_process(eth.send(0, 5, "x", 1))
