"""String search: in-store MP engines vs software grep (Section 7.3).

The accelerated path is "fully integrated with the file system, flash
controller and application software": software ships the needle and MP
constants to the engines, asks the file system for the haystack's
physical addresses, and streams them to the accelerator; engines divide
the haystack into contiguous segments (with one page of overlap so
boundary-spanning matches are kept) and return only match positions.

The baselines run grep-style software scans over the commodity SSD and
the hard disk, paying host CPU per byte — the Figure 21 comparison.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ..core.node import BlueDBMNode
from ..flash import PhysAddr
from ..isp.mp import MPEngine, MPStream, failure_function, mp_search
from ..sim import LatencyHistogram, Simulator, Store, units

__all__ = ["make_text_corpus", "StringSearchISP", "SoftwareGrep"]

_WORDS = (b"flash storage analytics query engine network latency "
          b"bandwidth accelerator processor data page block controller "
          b"cluster node memory system hardware software").split()


def make_text_corpus(total_bytes: int, needle: bytes, n_matches: int,
                     seed: int = 0) -> Tuple[bytes, List[int]]:
    """Synthetic haystack with ``needle`` planted ``n_matches`` times.

    Returns (corpus, expected match end-offsets) where offsets are
    verified against the pure-software MP oracle, so tests can trust
    them even if random text accidentally contains the needle.
    """
    if total_bytes < len(needle) * (n_matches + 1):
        raise ValueError("corpus too small for requested matches")
    rng = random.Random(seed)
    chunks: List[bytes] = []
    size = 0
    while size < total_bytes:
        word = _WORDS[rng.randrange(len(_WORDS))]
        chunks.append(word + b" ")
        size += len(word) + 1
    corpus = bytearray(b"".join(chunks)[:total_bytes])
    stride = total_bytes // (n_matches + 1)
    for i in range(1, n_matches + 1):
        pos = i * stride
        corpus[pos:pos + len(needle)] = needle
    expected, _ = mp_search(bytes(corpus), needle)
    return bytes(corpus), expected


class StringSearchISP:
    """Hardware-accelerated exact-match search on one node."""

    #: Each Morris-Pratt engine's stream rate.
    ENGINE_BYTES_PER_NS = 0.05

    def __init__(self, node: BlueDBMNode, engines_per_bus: int = 4):
        self.node = node
        self.sim = node.sim
        self.engines_per_bus = engines_per_bus
        self._file: Optional[str] = None

    @property
    def n_engines(self) -> int:
        geometry = self.node.geometry
        return (self.engines_per_bus * geometry.buses_per_card
                * geometry.cards_per_node)

    def setup(self, corpus: bytes):
        """Store the haystack through the file system (DES generator)."""
        yield from self.node.fs.write_file("haystack", corpus)
        self._file = "haystack"

    def run(self, needle: bytes):
        """(DES generator) -> (match_offsets, search_gbs, cpu_util).

        Software cost is setup only: ship needle + MP constants, query
        the file system for physical locations, stream addresses.  Then
        engines pull pages at flash speed; only matches return.
        """
        if self._file is None:
            raise RuntimeError("setup() must run before run()")
        node = self.node
        page_size = node.geometry.page_size
        # (1) software setup: needle + MP constants over DMA + extents
        # query; one short burst of host work.
        setup_bytes = len(needle) + 4 * len(needle)  # pattern + constants
        yield from node.cpu.compute(node.host_config.software_request_ns)
        yield from node.pcie.host_to_device(setup_bytes)
        extents = node.fs.physical_extents(self._file)
        handle = node.flash_server.register_file(self._file, extents)

        n_engines = min(self.n_engines, max(1, len(extents)))
        # Contiguous segments with one page of overlap at each boundary.
        bounds = [round(i * len(extents) / n_engines)
                  for i in range(n_engines + 1)]
        # Stagger segment starts across buses: with bus-fastest striping,
        # page p lives on bus p mod N, so snapping segment i's start to
        # p === i (mod N) keeps every bus busy from the first request
        # instead of convoying all engines onto one bus.
        n_buses = node.geometry.buses_per_card
        for i in range(1, n_engines):
            if bounds[i + 1] - bounds[i] > n_buses:
                bounds[i] += (i - bounds[i]) % n_buses
        t0 = self.sim.now
        cpu_busy_before = node.cpu.tracker.busy_ns
        all_matches: List[int] = []
        segment_procs = []

        def segment(index: int, engine: MPEngine):
            lo, hi = bounds[index], bounds[index + 1]
            if lo >= hi:
                return
            start_page = max(0, lo - 1) if index > 0 else lo
            stream = MPStream()
            stream.offset = start_page * page_size
            segment_floor = lo * page_size
            # The Flash Server streams the segment through its page
            # buffers while the engine scans: reads and compute fully
            # overlap, which is how the engines reach ~92% of the
            # board's sequential bandwidth.
            pages = Store(self.sim, capacity=2)
            self.sim.process(node.flash_server.stream_file(
                handle.handle_id, pages,
                offsets=range(start_page, hi)))
            for _ in range(hi - start_page):
                page = yield pages.get()
                yield from engine.run_page(page, stream)
            # Drop overlap-region duplicates owned by the previous segment.
            all_matches.extend(m for m in stream.matches
                               if m >= segment_floor or index == 0)

        for i in range(n_engines):
            engine = MPEngine(self.sim, needle, self.ENGINE_BYTES_PER_NS,
                              name=f"mp-{i}")
            segment_procs.append(self.sim.process(segment(i, engine)))
        for proc in segment_procs:
            yield proc
        elapsed = self.sim.now - t0
        searched_bytes = len(extents) * page_size
        gbs = units.bandwidth_gbytes(searched_bytes, elapsed)
        cpu_busy = node.cpu.tracker.busy_ns - cpu_busy_before
        cpu_util = cpu_busy / elapsed if elapsed else 0.0
        return sorted(set(all_matches)), gbs, cpu_util


class SoftwareGrep:
    """grep-style software scan over a page-addressed device.

    Reads the haystack sequentially and scans on a host core; this is
    the real MP algorithm too, but every byte crosses the device bus and
    burns host CPU (``SCAN_NS_PER_BYTE``, ~1.1 ns/B — a fast
    string-search inner loop of the era).
    """

    SCAN_NS_PER_BYTE = 1.08

    def __init__(self, sim: Simulator, cpu, device):
        self.sim = sim
        self.cpu = cpu
        self.device = device
        #: Per-page device read latency (issue -> data back), across
        #: every :meth:`run` — the mean/p99 the Figure 21 table reports
        #: for the software rows.
        self.page_latency = LatencyHistogram("grep-page-read")

    def load(self, corpus: bytes, page_size: int = 8192) -> int:
        """Lay the corpus out sequentially on the device; -> page count."""
        n_pages = (len(corpus) + page_size - 1) // page_size
        for page in range(n_pages):
            self.device.store(
                page, corpus[page * page_size:(page + 1) * page_size])
        return n_pages

    #: The kernel's sequential readahead window, in pages.
    READAHEAD = 8

    def run(self, needle: bytes, n_pages: int, page_size: int = 8192):
        """(DES generator) -> (match_offsets, scan_gbs, cpu_util).

        ``READAHEAD`` models the kernel's sequential readahead
        window: device reads overlap the CPU scan, so throughput settles
        at min(device rate, scan rate) — I/O bound on SSD at ~65 % of
        one core, exactly Figure 21's software rows.
        """
        fail = failure_function(needle)
        stream_state = 0
        matches: List[int] = []
        t0 = self.sim.now
        cpu_busy_before = self.cpu.tracker.busy_ns

        def _read(page: int):
            issued = self.sim.now
            data = yield from self.device.read(page)
            self.page_latency.record(self.sim.now - issued)
            return data

        pending = []
        next_issue = 0
        for page in range(n_pages):
            while next_issue < n_pages and len(pending) < self.READAHEAD:
                pending.append(self.sim.process(_read(next_issue)))
                next_issue += 1
            data = yield pending.pop(0)
            scan_ns = int(len(data) * self.SCAN_NS_PER_BYTE)
            yield from self.cpu.compute(scan_ns)
            found, stream_state = mp_search(
                data, needle, fail, state=stream_state,
                base_offset=page * page_size)
            matches.extend(found)
        elapsed = self.sim.now - t0
        gbs = units.bandwidth_gbytes(n_pages * page_size, elapsed)
        cpu_busy = self.cpu.tracker.busy_ns - cpu_busy_before
        cpu_util = cpu_busy / elapsed if elapsed else 0.0
        return matches, gbs, cpu_util
