"""Deterministic per-endpoint routing (Section 3.2.3).

"All packets originating from the same logical endpoint that are directed
to the same destination node follow the same route across the network,
while packets from a different endpoint directed to the same destination
node may follow a different path."  This spreads traffic over parallel
links *without* per-packet reordering, so no completion buffers are
needed at the receiver.

Routes are computed offline from the topology (there is no discovery
protocol): for every (node, destination, endpoint) we enumerate the
shortest paths — including the parallel-cable multiplicity of each hop —
and pick one deterministically by endpoint index.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

from .topology import Topology

__all__ = ["RoutingTable", "build_routing_tables", "shortest_hop_counts"]


class RoutingTable:
    """Per-node map: (destination, endpoint) -> output port."""

    def __init__(self, node: int):
        self.node = node
        self._table: Dict[Tuple[int, int], int] = {}

    def install(self, dst: int, endpoint: int, port: int) -> None:
        self._table[(dst, endpoint)] = port

    def next_port(self, dst: int, endpoint: int) -> int:
        key = (dst, endpoint)
        if key not in self._table:
            raise KeyError(
                f"node {self.node}: no route to {dst} for endpoint "
                f"{endpoint}")
        return self._table[key]


def shortest_hop_counts(topo: Topology, src: int) -> Dict[int, int]:
    """BFS hop distance from ``src`` to every reachable node."""
    dist = {src: 0}
    frontier = deque([src])
    adj = topo.adjacency()
    while frontier:
        node = frontier.popleft()
        for _, peer in adj[node]:
            if peer not in dist:
                dist[peer] = dist[node] + 1
                frontier.append(peer)
    return dist


def _min_hop_ports(topo: Topology, dst: int) -> Dict[int, List[int]]:
    """For each node, the sorted output ports that lie on *some* shortest
    path toward ``dst`` (parallel cables appear as distinct ports)."""
    dist = shortest_hop_counts(topo, dst)  # distances *to* dst (undirected)
    options: Dict[int, List[int]] = {}
    for node in range(topo.n_nodes):
        if node == dst or node not in dist:
            continue
        ports = [port for port, peer, _ in topo.neighbors(node)
                 if peer in dist and dist[peer] == dist[node] - 1]
        options[node] = sorted(ports)
    return options


def build_routing_tables(topo: Topology,
                         n_endpoints: int) -> List[RoutingTable]:
    """Compute every node's routing table for ``n_endpoints`` endpoints.

    Endpoint ``e`` takes the ``e mod k``-th of the ``k`` shortest-path
    ports at each node, which both spreads endpoints over parallel links
    and keeps each endpoint's route fixed — the paper's determinism
    invariant (Figure 6).
    """
    if n_endpoints < 1:
        raise ValueError(f"need >= 1 endpoint, got {n_endpoints}")
    if not topo.is_connected():
        raise ValueError("topology is not connected; cannot route")
    tables = [RoutingTable(node) for node in range(topo.n_nodes)]
    for dst in range(topo.n_nodes):
        options = _min_hop_ports(topo, dst)
        for node, ports in options.items():
            for endpoint in range(n_endpoints):
                tables[node].install(dst, endpoint,
                                     ports[endpoint % len(ports)])
    return tables
