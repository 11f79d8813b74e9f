"""Distributed graph traversal across a 3-node BlueDBM cluster.

Shards a synthetic graph (one vertex per flash page) over a cluster
built by the scenario API, then walks the same deterministic chain of
dependent lookups under each of Figure 20's access configurations,
printing lookups/second.  The walk's vertex sequence is verified
against a pure-software oracle.

Run:  python examples/graph_traversal.py
"""

from repro.api import ScenarioSpec, Session
from repro.apps import DistributedGraph, GraphTraversal

SPEC = ScenarioSpec(name="graph-traversal", n_nodes=3)

CONFIGS = [
    ("isp-f", "in-store processor over the integrated network"),
    ("h-f", "host software, data over the integrated network"),
    ("h-rh-f", "request via remote host software (generic cluster)"),
    ("dram-50f", "remote host serves; 50% of lookups hit flash"),
    ("dram-30f", "remote host serves; 30% of lookups hit flash"),
    ("h-dram", "remote host serves everything from DRAM"),
]


def main():
    print("building 3-node cluster and sharding a 600-vertex graph...")
    results = {}
    for config, _ in CONFIGS:
        session = Session(SPEC)
        graph = DistributedGraph(session.cluster, 600, avg_degree=6,
                                 seed=11)
        traversal = GraphTraversal(graph, home_node=0, seed=11)

        def run(sim, config=config, traversal=traversal):
            rate, path = yield from traversal.run(config, 1, 100)
            return rate, path

        rate, path = session.sim.run_process(run(session.sim))
        assert path == graph.reference_walk(1, 100), config
        results[config] = rate

    print(f"\n{'config':10s} {'lookups/s':>10s}  description")
    for config, description in CONFIGS:
        print(f"{config:10s} {results[config]:>10,.0f}  {description}")

    ratio = results["isp-f"] / results["h-rh-f"]
    print(f"\nISP-F vs generic distributed SSD: {ratio:.1f}x "
          f"(paper: 'almost a factor of 3')")
    print("every configuration visited the identical vertex sequence")


if __name__ == "__main__":
    main()
