"""Nearest-neighbour search via Locality Sensitive Hashing (Section 7.1).

The full application the paper benchmarks in Figures 16-19:

* a real LSH index for Hamming space — multiple hash tables, each keyed
  by a random subset of bit positions, so similar pages land in the same
  bucket;
* the **accelerated path**: software hashes the query, looks up the
  bucket, and streams the bucket's *physical addresses* to in-store
  Hamming engines that read flash at device speed and return only
  distances;
* the **software paths**: host threads fetch candidate pages from some
  store (host DRAM, BlueDBM over PCIe, commodity SSD, disk, or a tiered
  DRAM-with-misses store) and compute distances on host cores.

Functional correctness is tested against a brute-force oracle; the
timing constants (``COMPARE_NS_PER_8K`` etc.) reproduce the paper's
measurements: the host needs ~4 threads to match one BlueDBM node's 320K
comparisons/s.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.accel import EngineArray
from ..core.node import BlueDBMNode
from ..devices import DRAMStore
from ..flash import PhysAddr
from ..host import HostCPU
from ..isp.hamming import HammingEngine, hamming_distance
from ..sim import Resource, Simulator, units

__all__ = [
    "LSHIndex",
    "make_item_corpus",
    "brute_force_nearest",
    "NearestNeighborISP",
    "SoftwareNN",
    "TieredPageStore",
]


class LSHIndex:
    """Locality Sensitive Hashing for Hamming space [Gionis et al. 99].

    Each of ``n_tables`` hash functions samples ``bits_per_hash`` fixed
    random bit positions of the item; items sharing all sampled bits in
    some table are bucket-mates and become query candidates.
    """

    def __init__(self, item_bytes: int, n_tables: int = 4,
                 bits_per_hash: int = 12, seed: int = 0):
        if n_tables < 1 or bits_per_hash < 1:
            raise ValueError("need >= 1 table and >= 1 bit per hash")
        self.n_tables = n_tables
        rng = random.Random(seed)
        total_bits = item_bytes * 8
        self._positions: List[List[int]] = [
            sorted(rng.sample(range(total_bits), bits_per_hash))
            for _ in range(n_tables)
        ]
        self._tables: List[Dict[int, List[int]]] = [
            {} for _ in range(n_tables)]

    def _key(self, table: int, data: bytes) -> int:
        key = 0
        for i, bit in enumerate(self._positions[table]):
            if data[bit // 8] >> (bit % 8) & 1:
                key |= 1 << i
        return key

    def insert(self, item_id: int, data: bytes) -> None:
        """Index one item (host-side, done at load time)."""
        for t in range(self.n_tables):
            self._tables[t].setdefault(self._key(t, data), []).append(
                item_id)

    def candidates(self, query: bytes) -> List[int]:
        """Bucket-mates of the query across all tables, deduplicated."""
        seen: Dict[int, None] = {}
        for t in range(self.n_tables):
            for item_id in self._tables[t].get(self._key(t, query), []):
                seen.setdefault(item_id, None)
        return list(seen)


def make_item_corpus(n_items: int, item_bytes: int, seed: int = 0,
                     n_clusters: int = 4) -> Dict[int, bytes]:
    """Synthetic 8KB-item corpus with planted similarity structure.

    Items are noisy copies of ``n_clusters`` random centroids (a small
    fraction of bits flipped), so LSH buckets are meaningful and nearest
    neighbours are well-defined — the paper's image-search stand-in.
    """
    if n_items < 1:
        raise ValueError("need at least one item")
    rng = random.Random(seed)
    centroids = [bytes(rng.randrange(256) for _ in range(item_bytes))
                 for _ in range(n_clusters)]
    corpus = {}
    n_flip = max(1, int(item_bytes * 8 * 0.02))
    for item_id in range(n_items):
        base = bytearray(centroids[item_id % n_clusters])
        for bit in rng.sample(range(item_bytes * 8), n_flip):
            base[bit // 8] ^= 1 << (bit % 8)
        corpus[item_id] = bytes(base)
    return corpus


def brute_force_nearest(query: bytes,
                        items: Dict[int, bytes]) -> Tuple[int, int]:
    """Oracle: exact nearest neighbour by exhaustive Hamming scan."""
    best_id, best_dist = -1, None
    for item_id, data in items.items():
        dist = hamming_distance(query, data)
        if best_dist is None or dist < best_dist or (
                dist == best_dist and item_id < best_id):
            best_id, best_dist = item_id, dist
    return best_id, best_dist


class NearestNeighborISP:
    """The accelerated path on one BlueDBM node."""

    #: Each Hamming engine's stream rate.
    ENGINE_BYTES_PER_NS = 0.4

    def __init__(self, node: BlueDBMNode, n_engines: int = 8):
        self.node = node
        self.sim = node.sim
        self.n_engines = n_engines
        self._addr_of: Dict[int, PhysAddr] = {}
        self.index: Optional[LSHIndex] = None

    def load(self, corpus: Dict[int, bytes], index: LSHIndex) -> None:
        """Place items in flash (striped for parallelism) and index them.

        Loading is setup, not the measured experiment, so items go
        straight into the page store.
        """
        geometry = self.node.geometry
        if len(corpus) > geometry.pages_per_node:
            raise ValueError("corpus exceeds node capacity")
        for slot, (item_id, data) in enumerate(sorted(corpus.items())):
            addr = geometry.striped(slot, node=self.node.node_id)
            self.node.device.store.program(addr, data)
            self._addr_of[item_id] = addr
            index.insert(item_id, data)
        self.index = index

    def query(self, query: bytes):
        """One full query (DES generator) -> (best_id, best_distance).

        Software hashes the query and streams candidate addresses; the
        engines read flash and compare at device bandwidth.
        """
        if self.index is None:
            raise RuntimeError("load() must run before query()")
        candidate_ids = self.index.candidates(query)
        if not candidate_ids:
            return (-1, None)
        # Software setup: ship the query page to the engines over DMA.
        yield from self.node.pcie.host_to_device(len(query))
        engines = EngineArray([
            HammingEngine(self.sim, query, self.ENGINE_BYTES_PER_NS,
                          name=f"hamming-{i}")
            for i in range(self.n_engines)])
        best: List[Tuple[int, int]] = []

        def _compare(item_id: int):
            result = yield from self.node.isp_read(self._addr_of[item_id])
            engine = engines.pick()
            dist = yield from engine.run_page(result.data)
            best.append((dist, item_id))

        yield from self.sim.pipeline(
            (_compare(item_id) for item_id in candidate_ids),
            4 * self.n_engines)
        dist, item_id = min(best)
        return (item_id, dist)

    def throughput_run(self, query: bytes, n_comparisons: int):
        """Stream ``n_comparisons`` distance calculations (DES generator).

        Returns comparisons/second.  Mirrors the paper's methodology:
        "we simply send out a million nearest-neighbor searches for the
        same query" — addresses cycle through the bucket.
        """
        if n_comparisons < 1:
            raise ValueError("need at least one comparison")
        ids = list(self._addr_of)
        engines = EngineArray([
            HammingEngine(self.sim, query, self.ENGINE_BYTES_PER_NS,
                          name=f"hamming-{i}")
            for i in range(self.n_engines)])
        start = self.sim.now
        done = []

        def _compare(item_id: int):
            result = yield from self.node.isp_read(self._addr_of[item_id])
            engine = engines.pick()
            yield from engine.run_page(result.data)
            done.append(self.sim.now)

        # Deep pipelining: the bandwidth-delay product of the flash path
        # (~260K pages/s x ~100 us) needs well over a hundred requests in
        # flight; the tagged controller supports exactly this.
        yield from self.sim.pipeline(
            (_compare(ids[i % len(ids)]) for i in range(n_comparisons)),
            32 * self.n_engines)
        elapsed = max(done) - start
        return n_comparisons / units.to_s(elapsed)


class TieredPageStore:
    """Host DRAM with a fraction of accesses spilling to a slower tier.

    Models the "DRAM + 10% Flash" / "DRAM + 5% Disk" configurations of
    Figure 17.  Misses serialize on a narrow paging path (the kernel
    fault/IO path), which is what makes even small miss fractions
    catastrophic — the paper's RAMCloud cliff.
    """

    #: Concurrent faults the paging path serves.
    PAGING_WIDTH = 2

    def __init__(self, sim: Simulator, dram: DRAMStore, secondary,
                 miss_fraction: float, seed: int = 0):
        if not 0.0 <= miss_fraction <= 1.0:
            raise ValueError("miss_fraction must be in [0, 1]")
        self.sim = sim
        self.dram = dram
        self.secondary = secondary
        self.miss_fraction = miss_fraction
        self.rng = random.Random(seed)
        self._paging = Resource(sim, capacity=self.PAGING_WIDTH,
                                name="paging-path")

    def read(self, page: int):
        """Read one page (DES generator), maybe via the slow tier."""
        if self.miss_fraction > 0 and self.rng.random() < self.miss_fraction:
            yield self._paging.request()
            try:
                data = yield from self.secondary.read(page)
            finally:
                self._paging.release()
            return data
        data = yield from self.dram.read(page)
        return data


class SoftwareNN:
    """Multithreaded software nearest-neighbour runner.

    ``read_fn(page) -> generator`` abstracts the storage backend: host
    DRAM, :class:`TieredPageStore`, commodity SSD, or BlueDBM through the
    host interface.  Each thread loops: fetch page, compare on a core.
    """

    #: Host software Hamming comparison cost for an 8KB item (one core).
    #: Calibrated so ~4 host threads match one BlueDBM node (Figure 16).
    COMPARE_NS_PER_8K = 12_500

    def __init__(self, sim: Simulator, cpu: HostCPU,
                 read_fn: Callable[[int], Iterable]):
        self.sim = sim
        self.cpu = cpu
        self.read_fn = read_fn

    def run(self, query: bytes, pages: Sequence[int], threads: int,
            n_comparisons: int):
        """(DES generator) -> comparisons per second.

        ``pages`` is the candidate working set; threads cycle over it
        until ``n_comparisons`` are done.
        """
        if threads < 1:
            raise ValueError("need at least one thread")
        if n_comparisons < 1:
            raise ValueError("need at least one comparison")
        start = self.sim.now
        remaining = [n_comparisons]
        finish_times = []

        def worker(offset: int):
            i = offset
            while remaining[0] > 0:
                remaining[0] -= 1
                page = pages[i % len(pages)]
                i += threads
                data = yield from self.read_fn(page)
                yield from self.cpu.compute(self.COMPARE_NS_PER_8K)
                # Functional: the comparison really happens.
                hamming_distance(query[:64], data[:64])
            finish_times.append(self.sim.now)

        procs = [self.sim.process(worker(t)) for t in range(threads)]
        for proc in procs:
            yield proc
        elapsed = max(finish_times) - start
        return n_comparisons / units.to_s(elapsed)
