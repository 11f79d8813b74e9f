"""Tests for topology builders and routing-table computation."""

import json

import pytest

from repro.network import (
    Cable,
    Topology,
    build_routing_tables,
    fat_tree,
    fully_connected,
    line,
    mesh2d,
    ring,
    shortest_hop_counts,
    star,
)
from repro.network.topology import MAX_PORTS


class TestTopology:
    def test_connect_assigns_incrementing_ports(self):
        topo = Topology(3)
        c1 = topo.connect(0, 1)
        c2 = topo.connect(0, 2)
        assert (c1.port_a, c2.port_a) == (0, 1)
        assert topo.ports_used(0) == 2
        assert topo.ports_used(1) == 1

    def test_port_limit_enforced(self):
        topo = Topology(10)
        for node in range(1, MAX_PORTS + 1):
            topo.connect(0, node)
        with pytest.raises(ValueError, match="out of ports"):
            topo.connect(0, 9)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Cable(1, 0, 1, 1)

    def test_neighbors(self):
        topo = Topology(3)
        topo.connect(0, 1)
        topo.connect(0, 2)
        assert topo.neighbors(0) == [(0, 1, 0), (1, 2, 0)]
        assert topo.neighbors(1) == [(0, 0, 0)]

    def test_connectivity_detection(self):
        topo = Topology(3)
        topo.connect(0, 1)
        assert not topo.is_connected()
        topo.connect(1, 2)
        assert topo.is_connected()

    def test_config_roundtrip(self):
        topo = ring(5, lanes=2)
        config = json.loads(topo.to_config())
        assert config["n_nodes"] == 5
        assert config["max_ports"] == MAX_PORTS
        assert config["cables"] == [
            [c.node_a, c.port_a, c.node_b, c.port_b] for c in topo.cables]


class TestBuilders:
    def test_paper_ring_uses_exactly_8_ports(self):
        # 20 nodes, 4 lanes to next and previous (Section 6.3).
        topo = ring(20, lanes=4)
        assert all(topo.ports_used(n) == 8 for n in range(20))
        assert topo.is_connected()

    def test_ring_average_hops_matches_paper(self):
        # Paper: "the average latency to a remote node is 5 hops".
        topo = ring(20, lanes=1)
        total, pairs = 0, 0
        for src in range(20):
            dist = shortest_hop_counts(topo, src)
            total += sum(d for node, d in dist.items() if node != src)
            pairs += 19
        assert 5.0 <= total / pairs <= 5.5

    def test_ring_minimum_size(self):
        with pytest.raises(ValueError):
            ring(2)

    def test_line_hop_counts(self):
        topo = line(5)
        dist = shortest_hop_counts(topo, 0)
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_star_all_two_hops_via_hub(self):
        topo = star(6)
        dist = shortest_hop_counts(topo, 1)
        assert dist[0] == 1
        assert all(dist[n] == 2 for n in range(2, 6))

    def test_star_hub_port_exhaustion(self):
        with pytest.raises(ValueError):
            star(10)  # hub would need 9 ports

    def test_mesh2d_dimensions(self):
        topo = mesh2d(3, 3)
        assert topo.n_nodes == 9
        # Corner has 2 neighbors, center has 4.
        assert len(topo.neighbors(0)) == 2
        assert len(topo.neighbors(4)) == 4
        assert topo.is_connected()

    def test_fully_connected(self):
        topo = fully_connected(4)
        assert len(topo.cables) == 6
        assert all(max(d for d in
                       shortest_hop_counts(topo, n).values()) == 1
                   for n in range(4))

    def test_fat_tree_leaves_reach_all_spines(self):
        topo = fat_tree(n_spine=2, n_leaf=4)
        assert topo.is_connected()
        # Each leaf has one cable per spine.
        assert all(topo.ports_used(leaf) == 2 for leaf in range(2, 6))


class TestRouting:
    def test_tables_cover_all_destinations(self):
        topo = ring(6)
        tables = build_routing_tables(topo, n_endpoints=2)
        for node, table in enumerate(tables):
            for dst in range(6):
                if dst == node:
                    continue
                for ep in range(2):
                    assert 0 <= table.next_port(dst, ep) < 8

    def test_route_is_shortest(self):
        topo = line(5)
        tables = build_routing_tables(topo, n_endpoints=1)
        # Walk the route 0 -> 4 and count hops.
        node, hops = 0, 0
        while node != 4 and hops < 10:
            port = tables[node].next_port(4, 0)
            neighbors = {p: peer for p, peer, _ in topo.neighbors(node)}
            node = neighbors[port]
            hops += 1
        assert node == 4
        assert hops == 4

    def test_deterministic_per_endpoint(self):
        topo = ring(6, lanes=2)
        t1 = build_routing_tables(topo, n_endpoints=4)
        t2 = build_routing_tables(topo, n_endpoints=4)
        for node in range(6):
            for dst in range(6):
                if dst == node:
                    continue
                for ep in range(4):
                    assert (t1[node].next_port(dst, ep)
                            == t2[node].next_port(dst, ep))

    def test_endpoints_spread_over_parallel_lanes(self):
        topo = line(2, lanes=4)
        tables = build_routing_tables(topo, n_endpoints=4)
        ports = {tables[0].next_port(1, ep) for ep in range(4)}
        assert len(ports) == 4  # each endpoint takes its own lane

    def test_unknown_route_raises(self):
        topo = line(3)
        tables = build_routing_tables(topo, n_endpoints=1)
        with pytest.raises(KeyError):
            tables[0].next_port(2, endpoint=5)

    def test_disconnected_topology_rejected(self):
        topo = Topology(3)
        topo.connect(0, 1)
        with pytest.raises(ValueError, match="not connected"):
            build_routing_tables(topo, n_endpoints=1)

    def test_zero_endpoints_rejected(self):
        with pytest.raises(ValueError):
            build_routing_tables(line(2), n_endpoints=0)
