"""The assembled storage network fabric.

Builds, from a :class:`~repro.network.topology.Topology` and a
:class:`~repro.network.packet.NetworkConfig`:

* two :class:`SerialLink` instances per cable (one per direction),
* one :class:`NodeSwitch` per node with routing tables computed by
  :func:`~repro.network.routing.build_routing_tables`,
* ``n_endpoints`` logical :class:`Endpoint` instances per node, all
  sharing the physical network (virtual channels).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..sim import Simulator
from .endpoint import Endpoint
from .link import SerialLink
from .packet import NetworkConfig
from .routing import build_routing_tables, shortest_hop_counts
from .switch import NodeSwitch
from .topology import Topology

__all__ = ["StorageNetwork"]


class StorageNetwork:
    """The rack-wide integrated storage network."""

    def __init__(self, sim: Simulator, topology: Topology,
                 config: Optional[NetworkConfig] = None,
                 n_endpoints: int = 4,
                 e2e_endpoints: Optional[Set[int]] = None):
        """Create the fabric.

        ``e2e_endpoints`` lists the endpoint ids that use end-to-end flow
        control (Section 3.2.3's per-endpoint choice); the rest rely on
        link-level backpressure only.
        """
        if n_endpoints < 1:
            raise ValueError(f"n_endpoints must be >= 1, got {n_endpoints}")
        self.sim = sim
        self.topology = topology
        self.config = config or NetworkConfig()
        self.n_endpoints = n_endpoints
        self.e2e_endpoints = e2e_endpoints or set()

        tables = build_routing_tables(topology, n_endpoints)
        self.switches: List[NodeSwitch] = [
            NodeSwitch(sim, node, self.config, tables[node])
            for node in range(topology.n_nodes)
        ]
        self.links: List[SerialLink] = []
        for cable in topology.cables:
            a2b = SerialLink(sim, self.config,
                             name=f"{cable.node_a}:{cable.port_a}->"
                                  f"{cable.node_b}:{cable.port_b}")
            b2a = SerialLink(sim, self.config,
                             name=f"{cable.node_b}:{cable.port_b}->"
                                  f"{cable.node_a}:{cable.port_a}")
            self.switches[cable.node_a].attach_out(cable.port_a, a2b)
            self.switches[cable.node_b].attach_in(cable.port_b, a2b)
            self.switches[cable.node_b].attach_out(cable.port_b, b2a)
            self.switches[cable.node_a].attach_in(cable.port_a, b2a)
            self.links.extend([a2b, b2a])

        self._endpoints: Dict[Tuple[int, int], Endpoint] = {}
        for node in range(topology.n_nodes):
            for ep in range(n_endpoints):
                self._endpoints[(node, ep)] = Endpoint(
                    sim, self, node, ep, self.switches[node],
                    end_to_end_fc=ep in self.e2e_endpoints)

        self._hops: Dict[int, Dict[int, int]] = {
            node: shortest_hop_counts(topology, node)
            for node in range(topology.n_nodes)
        }

    def endpoint(self, node: int, endpoint_id: int) -> Endpoint:
        """The ``endpoint_id`` endpoint instance on ``node``."""
        key = (node, endpoint_id)
        if key not in self._endpoints:
            raise KeyError(f"no endpoint {endpoint_id} on node {node}")
        return self._endpoints[key]

    def propagation_ns(self, src: int, dst: int) -> int:
        """One-way propagation delay from ``src`` to ``dst``.

        Deterministic per route (Section 3.2.3): hops x hop latency, so
        zero for a node-local message.
        """
        return self._hops[src][dst] * self.config.hop_latency_ns

    def average_hop_count(self) -> float:
        """Mean hops over all ordered node pairs (ring analytics, §6.3)."""
        n = self.topology.n_nodes
        if n < 2:
            return 0.0
        total = sum(self._hops[s][d]
                    for s in range(n) for d in range(n) if s != d)
        return total / (n * (n - 1))

    def total_payload_gbps_capacity(self) -> float:
        """Aggregate one-directional payload capacity of all links."""
        return len(self.links) / 2 * self.config.payload_gbps

    def byte_ledger(self) -> dict:
        """Fabric-wide payload-byte reconciliation.

        Endpoint counters charge each message's payload exactly once at
        the source (``sent``) and once at the destination
        (``received``); the wire charges every *hop*, so an h-hop
        message contributes h times its payload to
        ``link_payload_bytes``, of which h-1 shares are relays
        (``forwarded_bytes``).  After the network drains::

            endpoint_sent_bytes == endpoint_received_bytes
            link_payload_bytes - forwarded_bytes == endpoint_sent_bytes

        (the second identity counts only traffic that crossed a wire —
        node-local sends never leave the internal switch and appear in
        the endpoint counters alone).
        """
        return {
            "endpoint_sent_bytes": sum(
                ep.sent_bytes.value for ep in self._endpoints.values()),
            "endpoint_received_bytes": sum(
                ep.received_bytes.value
                for ep in self._endpoints.values()),
            "link_payload_bytes": sum(
                link.payload_bytes.value for link in self.links),
            "forwarded_bytes": sum(
                switch.forwarded_bytes.value
                for switch in self.switches),
        }
