"""Distributed graph traversal (Section 7.2, Figure 20).

Vertices live one-per-page, spread across every node's flash (and
mirrored in each node's DRAM for the RAMCloud-style baselines).  A
traversal is a chain of *dependent* lookups: parse the vertex page, pick
a neighbor, fetch its page — the next fetch cannot be issued until the
current one returns, so the chain rate is 1/latency and the access-path
choice (ISP-F / H-F / H-RH-F / DRAM mixes) is everything.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..core.cluster import BlueDBMCluster
from ..flash import PhysAddr
from ..isp.graphwalk import GraphWalkEngine, decode_vertex, encode_vertex
from ..sim import units

__all__ = ["DistributedGraph", "GraphTraversal"]


class DistributedGraph:
    """A synthetic directed graph sharded over a BlueDBM cluster."""

    def __init__(self, cluster: BlueDBMCluster, n_vertices: int,
                 avg_degree: int = 8, seed: int = 0):
        if n_vertices < 2:
            raise ValueError("need at least two vertices")
        if avg_degree < 1:
            raise ValueError("need at least degree 1")
        self.cluster = cluster
        self.n_vertices = n_vertices
        self.adjacency: Dict[int, List[int]] = {}
        rng = random.Random(seed)
        page_size = cluster.page_size
        for v in range(n_vertices):
            degree = max(1, min(n_vertices - 1,
                                rng.randint(1, 2 * avg_degree)))
            neighbors = rng.sample(
                [u for u in range(n_vertices) if u != v],
                min(degree, n_vertices - 1))
            self.adjacency[v] = neighbors
            data = encode_vertex(v, neighbors, page_size)
            owner = self.owner(v)
            node = cluster.nodes[owner]
            node.device.store.program(self.address(v), data)
            node.dram.store(self.dram_page(v), data)

    # -- placement ----------------------------------------------------------
    def owner(self, vertex: int) -> int:
        """Vertices are sharded round-robin across nodes."""
        return vertex % self.cluster.n_nodes

    def dram_page(self, vertex: int) -> int:
        return vertex // self.cluster.n_nodes

    def address(self, vertex: int) -> PhysAddr:
        """Physical flash location of a vertex's page."""
        node = self.owner(vertex)
        slot = vertex // self.cluster.n_nodes
        geometry = self.cluster.nodes[node].geometry
        if slot >= geometry.pages_per_node:
            raise ValueError("graph exceeds node flash capacity")
        return geometry.striped(slot, node=node)

    def reference_walk(self, start: int, steps: int) -> List[int]:
        """Pure-software oracle of the deterministic walk."""
        path = [start]
        v = start
        for step in range(steps):
            neighbors = self.adjacency[v]
            v = neighbors[step % len(neighbors)]
            path.append(v)
        return path


class GraphTraversal:
    """Runs the walk over each of Figure 20's access configurations."""

    def __init__(self, graph: DistributedGraph, home_node: int = 0,
                 seed: int = 0):
        self.graph = graph
        self.cluster = graph.cluster
        self.sim = graph.cluster.sim
        self.home = home_node
        self.rng = random.Random(seed)

    # -- access paths per lookup ----------------------------------------------
    def _fetch_isp_f(self, vertex: int):
        """ISP-F: the in-store processor drives; remote reads go over the
        integrated network, local ones straight to flash."""
        addr = self.graph.address(vertex)
        if addr.node == self.home:
            return (yield from self.cluster.nodes[self.home].isp_read(addr))
        return (yield from self.cluster.isp_remote_flash(self.home, addr))

    def _fetch_h_f(self, vertex: int):
        """H-F: host software drives; data still moves on the integrated
        network but every lookup pays the host request/PCIe path."""
        addr = self.graph.address(vertex)
        if addr.node == self.home:
            return (yield from self.cluster.nodes[self.home].host_read(addr))
        return (yield from self.cluster.host_remote_flash(self.home, addr))

    def _fetch_h_rh_f(self, vertex: int):
        """H-RH-F: requests detour through the remote host's software."""
        addr = self.graph.address(vertex)
        if addr.node == self.home:
            return (yield from self.cluster.nodes[self.home].host_read(addr))
        return (yield from self.cluster.host_remote_via_host(
            self.home, addr))

    def _fetch_dram_mixed(self, vertex: int, dram_fraction: float):
        """RAMCloud-style: remote server answers from DRAM with
        probability ``dram_fraction``, else from its flash."""
        addr = self.graph.address(vertex)
        if self.rng.random() < dram_fraction:
            if addr.node == self.home:
                node = self.cluster.nodes[self.home]
                data = yield from node.dram.read(
                    self.graph.dram_page(vertex))
                return data
            return (yield from self.cluster.host_remote_dram(
                self.home, addr.node, self.graph.dram_page(vertex)))
        data = yield from self._fetch_h_rh_f(vertex)
        return data

    # -- the measured walk ------------------------------------------------------
    def run(self, config: str, start: int, steps: int):
        """(DES generator) -> (lookups_per_second, visited_path).

        ``config`` is one of ``isp-f``, ``h-f``, ``h-rh-f``,
        ``dram-50f``, ``dram-30f``, ``h-dram`` (Figure 20's x axis).
        """
        fetchers = {
            "isp-f": self._fetch_isp_f,
            "h-f": self._fetch_h_f,
            "h-rh-f": self._fetch_h_rh_f,
            "dram-50f": lambda v: self._fetch_dram_mixed(v, 0.5),
            "dram-30f": lambda v: self._fetch_dram_mixed(v, 0.7),
            "h-dram": lambda v: self._fetch_dram_mixed(v, 1.0),
        }
        if config not in fetchers:
            raise ValueError(f"unknown config {config!r}; "
                             f"options: {sorted(fetchers)}")
        if steps < 1:
            raise ValueError("steps must be >= 1")
        fetch = fetchers[config]
        engine = GraphWalkEngine(self.sim)
        t0 = self.sim.now
        v = start % self.graph.n_vertices
        path = [v]
        for _ in range(steps):
            data = yield from fetch(v)
            _, nxt = yield from engine.run_page(data)
            if nxt is None:
                break
            v = nxt
            path.append(v)
        elapsed = self.sim.now - t0
        lookups = len(path) - 1
        rate = lookups / units.to_s(elapsed) if elapsed else 0.0
        return rate, path
