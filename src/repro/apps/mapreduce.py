"""BlueDBM-optimized MapReduce (Section 8 future work, built out).

Word count as the canonical job, restructured for an in-store-processing
cluster the way the paper proposes:

* **map runs in storage** — each node's engines stream its local shard
  from flash and emit per-page partial counts; raw pages never cross
  PCIe or the host network;
* **shuffle rides the integrated storage network** — partial counts are
  partitioned by word hash and sent device-to-device to their reducer
  node on a dedicated logical endpoint;
* **reduce is host software** — small merged dictionaries cross PCIe
  once.

The software baseline maps on the host: every page crosses PCIe and
tokenization burns host CPU.  Both return counts identical to a
``collections.Counter`` oracle.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.accel import Engine
from ..core.cluster import BlueDBMCluster
from ..sim import Store, units

__all__ = ["WordCountEngine", "WordCountJob", "make_sharded_corpus",
           "SHUFFLE_EP"]

#: Logical endpoint reserved for shuffle traffic (the cluster's own
#: request/response protocol uses 0..n-1; benches construct the cluster
#: with enough endpoints).
SHUFFLE_EP = 1

#: Host-side cost to tokenize+count one byte of text (software map).
HOST_MAP_NS_PER_BYTE = 2.0
#: Host-side cost to merge one (word, count) entry during reduce.
REDUCE_NS_PER_ENTRY = 80


def make_sharded_corpus(cluster_nodes: int, pages_per_shard: int,
                        page_size: int, seed: int = 0
                        ) -> Tuple[List[List[bytes]], Counter]:
    """Per-node lists of word-aligned text pages + the oracle counts."""
    import random
    rng = random.Random(seed)
    vocabulary = [f"word{i:03d}".encode() for i in range(64)]
    shards: List[List[bytes]] = []
    oracle: Counter = Counter()
    for _ in range(cluster_nodes):
        pages = []
        for _ in range(pages_per_shard):
            words = []
            size = 0
            while True:
                word = vocabulary[rng.randrange(len(vocabulary))]
                if size + len(word) + 1 > page_size:
                    break
                words.append(word)
                size += len(word) + 1
            for word in words:
                oracle[word.decode()] += 1
            pages.append(b" ".join(words))
        shards.append(pages)
    return shards, oracle


class WordCountEngine(Engine):
    """In-store map: tokenize a text page and count words (for real)."""

    def __init__(self, sim, bytes_per_ns: float = 0.4,
                 name: str = "wordcount-engine"):
        super().__init__(sim, bytes_per_ns, name=name)

    def process_page(self, data: bytes, context=None) -> Dict[str, int]:
        counts: Counter = Counter()
        for token in data.rstrip(b"\x00").split():
            counts[token.decode()] += 1
        return dict(counts)


def _partition(word: str, n_reducers: int) -> int:
    digest = hashlib.md5(word.encode()).digest()
    return digest[0] % n_reducers


def _wire_bytes(counts: Dict[str, int]) -> int:
    """Serialized size of a partial-count dictionary on the wire."""
    return sum(len(w) + 8 for w in counts)


class WordCountJob:
    """A word-count job over files sharded across the cluster."""

    #: Each word-count engine's stream rate.
    ENGINE_BYTES_PER_NS = 0.4

    def __init__(self, cluster: BlueDBMCluster, engines_per_node: int = 8):
        self.cluster = cluster
        self.sim = cluster.sim
        self.engines_per_node = engines_per_node
        self._loaded = False

    def load(self, shards: Sequence[Sequence[bytes]]):
        """Write each node's shard through its file system (generator)."""
        if len(shards) != self.cluster.n_nodes:
            raise ValueError("one shard per node required")
        page_size = self.cluster.page_size
        for node, pages in zip(self.cluster.nodes, shards):
            blob = b"".join(p.ljust(page_size, b"\x00") for p in pages)
            yield from node.fs.write_file("shard.txt", blob)
        self._loaded = True

    # ------------------------------------------------------------------
    def run_isp(self):
        """(DES generator) -> (Counter, stats).

        In-store map -> integrated-network shuffle -> host reduce.
        """
        self._check_loaded()
        cluster = self.cluster
        n = cluster.n_nodes
        t0 = self.sim.now
        reduced: List[Counter] = [Counter() for _ in range(n)]
        shuffle_bytes = [0]
        mappers = []
        reducers_live = [n]  # mappers still running, per reducer loop

        def mapper(node_id: int):
            node = cluster.nodes[node_id]
            extents = node.fs.physical_extents("shard.txt")
            handle = node.flash_server.register_file("wc", extents)
            engines = [WordCountEngine(self.sim, self.ENGINE_BYTES_PER_NS,
                                       name=f"wc-{node_id}-{i}")
                       for i in range(self.engines_per_node)]
            out = Store(self.sim, capacity=2 * len(engines))
            self.sim.process(node.flash_server.stream_file(
                handle.handle_id, out))
            # Partial counts per reducer, flushed at end of shard.
            partials: List[Counter] = [Counter() for _ in range(n)]
            pending = []
            for i in range(len(extents)):
                page = yield out.get()
                engine = engines[i % len(engines)]
                pending.append(self.sim.process(
                    engine.run_page(page)))
                if len(pending) >= 2 * len(engines):
                    counts = yield pending.pop(0)
                    self._fold(counts, partials)
            for proc in pending:
                counts = yield proc
                self._fold(counts, partials)
            # Shuffle: send each reducer its partition device-to-device.
            endpoint = cluster.network.endpoint(node_id, SHUFFLE_EP)
            for reducer, counter in enumerate(partials):
                payload = dict(counter)
                size = max(1, _wire_bytes(payload))
                shuffle_bytes[0] += size
                if reducer == node_id:
                    reduced[reducer].update(payload)  # local, no wire
                else:
                    yield from endpoint.send(
                        reducer, ("wc-partial", payload), size)

        def reducer_loop(node_id: int):
            endpoint = cluster.network.endpoint(node_id, SHUFFLE_EP)
            node = cluster.nodes[node_id]
            for _ in range(n - 1):  # one partial from each other node
                message = yield from endpoint.receive()
                tag, payload = message.payload
                assert tag == "wc-partial"
                yield from node.cpu.compute(
                    REDUCE_NS_PER_ENTRY * max(1, len(payload)))
                reduced[node_id].update(payload)

        procs = [self.sim.process(mapper(i)) for i in range(n)]
        procs += [self.sim.process(reducer_loop(i)) for i in range(n)]
        for proc in procs:
            yield proc
        total: Counter = Counter()
        for counter in reduced:
            total.update(counter)
        elapsed = self.sim.now - t0
        return total, self._stats(elapsed, shuffle_bytes[0])

    def run_host(self):
        """(DES generator) -> (Counter, stats).

        Conventional path: pages to host DRAM over PCIe, map in
        software, merge over Ethernet (counts are small; the page moves
        dominate).
        """
        self._check_loaded()
        cluster = self.cluster
        t0 = self.sim.now
        merged: Counter = Counter()
        procs = []

        def host_mapper(node_id: int):
            node = cluster.nodes[node_id]
            extents = node.fs.physical_extents("shard.txt")
            local: Counter = Counter()

            def one(addr):
                data = yield from node.host_read(addr, software_path=False)
                yield from node.cpu.compute(
                    int(len(data) * HOST_MAP_NS_PER_BYTE))
                for token in data.rstrip(b"\x00").split():
                    local[token.decode()] += 1

            yield from self.sim.pipeline(
                (one(addr) for addr in extents), 64)
            if node_id != 0:
                yield from cluster.ethernet.send(
                    node_id, 0, dict(local), max(1, _wire_bytes(local)))
            else:
                merged.update(local)

        def collector(sim):
            node = cluster.nodes[0]
            for _ in range(cluster.n_nodes - 1):
                message = yield cluster.app_inbox[0].get()
                yield from node.cpu.compute(
                    REDUCE_NS_PER_ENTRY * max(1, len(message.payload)))
                merged.update(message.payload)

        for i in range(cluster.n_nodes):
            procs.append(self.sim.process(host_mapper(i)))
        procs.append(self.sim.process(collector(self.sim)))
        for proc in procs:
            yield proc
        elapsed = self.sim.now - t0
        return merged, self._stats(elapsed, 0)

    # ------------------------------------------------------------------
    def _check_loaded(self):
        if not self._loaded:
            raise RuntimeError("load() must run before the job")

    @staticmethod
    def _fold(counts: Dict[str, int], partials: List[Counter]) -> None:
        n = len(partials)
        for word, count in counts.items():
            partials[_partition(word, n)][word] += count

    def _stats(self, elapsed_ns: int, shuffle_bytes: int) -> Dict:
        pages = sum(node.fs.stat("shard.txt").num_pages
                    for node in self.cluster.nodes)
        scanned = pages * self.cluster.page_size
        return {
            "elapsed_ns": elapsed_ns,
            "scan_gbs": units.bandwidth_gbytes(scanned, elapsed_ns),
            "shuffle_bytes": shuffle_bytes,
        }
