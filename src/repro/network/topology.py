"""Cluster topologies: "any network topology is possible as long as it
requires less than 8 network ports per node" (Figure 5).

A :class:`Topology` is a set of bidirectional cables between (node, port)
pairs.  Builders cover the paper's examples — ring (the deployed 20-node
configuration, Section 6.3), line, distributed star, 2-D mesh, fat tree —
plus fully-connected for small testbeds.  Rewiring means building a new
topology; route programming is done in software from a configuration
(Section 3.2.3: no discovery protocol, a network configuration file
populates the routing tables), written here by
:func:`Topology.to_config`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["Cable", "Topology", "ring", "line", "star", "mesh2d",
           "fully_connected", "fat_tree"]

MAX_PORTS = 8


@dataclass(frozen=True)
class Cable:
    """A bidirectional physical cable between two node ports."""

    node_a: int
    port_a: int
    node_b: int
    port_b: int

    def __post_init__(self):
        if self.node_a == self.node_b:
            raise ValueError("cable loops back to the same node")
        for v in (self.node_a, self.port_a, self.node_b, self.port_b):
            if v < 0:
                raise ValueError("negative cable field")


class Topology:
    """Wiring of the storage network: nodes and the cables between them."""

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError(f"need at least one node, got {n_nodes}")
        self.n_nodes = n_nodes
        self.cables: List[Cable] = []
        self._next_port = [0] * n_nodes

    def ports_used(self, node: int) -> int:
        return self._next_port[node]

    def connect(self, node_a: int, node_b: int) -> Cable:
        """Run a new cable between two nodes on their next free ports."""
        for node in (node_a, node_b):
            if not 0 <= node < self.n_nodes:
                raise ValueError(f"node {node} out of range")
            if self._next_port[node] >= MAX_PORTS:
                raise ValueError(
                    f"node {node} is out of ports "
                    f"(max {MAX_PORTS}, Figure 5 constraint)")
        cable = Cable(node_a, self._next_port[node_a],
                      node_b, self._next_port[node_b])
        self._next_port[node_a] += 1
        self._next_port[node_b] += 1
        self.cables.append(cable)
        return cable

    def neighbors(self, node: int) -> List[Tuple[int, int, int]]:
        """Outgoing connectivity of ``node`` as (port, peer, peer_port)."""
        result = []
        for cable in self.cables:
            if cable.node_a == node:
                result.append((cable.port_a, cable.node_b, cable.port_b))
            elif cable.node_b == node:
                result.append((cable.port_b, cable.node_a, cable.port_a))
        return sorted(result)

    def adjacency(self) -> Dict[int, List[Tuple[int, int]]]:
        """node -> sorted list of (port, neighbor)."""
        return {node: [(port, peer) for port, peer, _ in
                       self.neighbors(node)]
                for node in range(self.n_nodes)}

    def is_connected(self) -> bool:
        """True if every node can reach every other node."""
        if self.n_nodes == 1:
            return True
        seen = {0}
        frontier = [0]
        adj = self.adjacency()
        while frontier:
            node = frontier.pop()
            for _, peer in adj[node]:
                if peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        return len(seen) == self.n_nodes

    # -- configuration file I/O (Section 3.2.3) ---------------------------
    def to_config(self) -> str:
        """Serialize to the JSON network configuration format."""
        return json.dumps({
            "n_nodes": self.n_nodes,
            "max_ports": MAX_PORTS,
            "cables": [[c.node_a, c.port_a, c.node_b, c.port_b]
                       for c in self.cables],
        }, indent=2)


def line(n_nodes: int, lanes: int = 1) -> Topology:
    """A chain: node i wired to node i+1 with ``lanes`` parallel cables."""
    topo = Topology(n_nodes)
    for i in range(n_nodes - 1):
        for _ in range(lanes):
            topo.connect(i, i + 1)
    return topo


def ring(n_nodes: int, lanes: int = 1) -> Topology:
    """The deployed configuration: a ring with ``lanes`` cables per side.

    The paper's 20-node ring uses 4 lanes to each neighbor (Section 6.3),
    consuming exactly 8 ports per node.
    """
    if n_nodes < 3:
        raise ValueError("a ring needs at least 3 nodes")
    topo = line(n_nodes, lanes)
    for _ in range(lanes):
        topo.connect(n_nodes - 1, 0)
    return topo


def star(n_nodes: int) -> Topology:
    """Distributed star (Figure 5a): every node cabled to hub node 0."""
    topo = Topology(n_nodes)
    for node in range(1, n_nodes):
        topo.connect(0, node)
    return topo


def mesh2d(width: int, height: int) -> Topology:
    """2-D mesh (Figure 5b): node (x, y) = y*width + x."""
    topo = Topology(width * height)
    for y in range(height):
        for x in range(width):
            node = y * width + x
            if x + 1 < width:
                topo.connect(node, node + 1)
            if y + 1 < height:
                topo.connect(node, node + width)
    return topo


def fully_connected(n_nodes: int) -> Topology:
    """Every pair cabled directly (small testbeds only: n <= 9)."""
    topo = Topology(n_nodes)
    for a in range(n_nodes):
        for b in range(a + 1, n_nodes):
            topo.connect(a, b)
    return topo


def fat_tree(n_spine: int, n_leaf: int) -> Topology:
    """Fat tree (Figure 5c): leaves each cabled to every spine node.

    Nodes 0..n_spine-1 are spines, the rest are leaves; all of them are
    ordinary storage nodes (BlueDBM has no dedicated switches).
    """
    topo = Topology(n_spine + n_leaf)
    for leaf in range(n_spine, n_spine + n_leaf):
        for spine in range(n_spine):
            topo.connect(spine, leaf)
    return topo
