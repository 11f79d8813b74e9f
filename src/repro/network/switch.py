"""Per-node switching (Section 3.2, Figure 4).

Each storage device routes packets itself; there is no separate switch or
router box.  The *external switch* moves packets between physical ports,
relaying traffic toward its next hop; the *internal switch* delivers
packets addressed to this node into the right logical endpoint's receive
buffer, and injects locally-originated packets toward an output port.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim import Counter, Simulator, Store
from .link import SerialLink
from .packet import NetworkConfig, Packet
from .routing import RoutingTable

__all__ = ["NodeSwitch"]


class NodeSwitch:
    """The internal + external switch of one storage device."""

    def __init__(self, sim: Simulator, node: int, config: NetworkConfig,
                 table: RoutingTable):
        self.sim = sim
        self.node = node
        self.config = config
        self.table = table
        self.out_links: Dict[int, SerialLink] = {}
        self.in_links: Dict[int, SerialLink] = {}
        # Receive buffers, one bounded FIFO per logical endpoint.
        self.endpoint_queues: Dict[int, Store] = {}
        self.forwarded_bytes = Counter(f"node{node}-forwarded-bytes")

    # -- wiring (done by StorageNetwork at build time) ---------------------
    def attach_out(self, port: int, link: SerialLink) -> None:
        if port in self.out_links:
            raise ValueError(f"node {self.node} port {port} already wired")
        self.out_links[port] = link

    def attach_in(self, port: int, link: SerialLink) -> None:
        if port in self.in_links:
            raise ValueError(f"node {self.node} port {port} already wired")
        self.in_links[port] = link
        self.sim.process(self._forward_loop(link),
                         name=f"fwd-n{self.node}p{port}")

    def register_endpoint(self, endpoint_id: int) -> Store:
        if endpoint_id in self.endpoint_queues:
            raise ValueError(
                f"endpoint {endpoint_id} already registered on node "
                f"{self.node}")
        queue = Store(self.sim, capacity=self.config.endpoint_capacity,
                      name=f"n{self.node}-ep{endpoint_id}")
        self.endpoint_queues[endpoint_id] = queue
        return queue

    # -- data path ----------------------------------------------------------
    def inject(self, packet: Packet):
        """Send a locally-originated packet (DES generator).

        Local destinations cross only the internal switch; remote ones are
        handed to the external switch's output port for this packet's
        deterministic route.
        """
        if packet.dst == self.node:
            yield self.sim.timeout(self.config.hop_latency_ns // 4)
            yield self._deliver(packet)
        else:
            port = self.table.next_port(packet.dst, packet.endpoint)
            yield from self.out_links[port].transmit(packet)

    def _deliver(self, packet: Packet):
        queue = self.endpoint_queues.get(packet.endpoint)
        if queue is None:
            raise KeyError(
                f"node {self.node}: packet for unregistered endpoint "
                f"{packet.endpoint}")
        return queue.put(packet)

    def _forward_loop(self, link: SerialLink):
        """External switch port engine: relay inbound packets forever."""
        while True:
            packet = yield from link.receive()
            if packet.dst == self.node:
                yield self._deliver(packet)
            else:
                port = self.table.next_port(packet.dst, packet.endpoint)
                self.forwarded_bytes.add(packet.payload_bytes)
                yield from self.out_links[port].transmit(packet)
