"""Graph traversal engine: dependent page lookups (Section 7.2).

"Graph traversal algorithms often involve dependent lookups.  That is,
the data from the first request determines the next request, like a
linked-list traversal at the page level."

Vertices are serialized one per flash page; the engine's functional core
parses the page and picks the next vertex to visit.  Because each lookup
cannot start until the previous one returned, this workload is purely
latency-bound — exactly why the integrated network + ISP placement wins
in Figure 20.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from ..core.accel import Engine
from ..sim import Simulator

__all__ = ["encode_vertex", "decode_vertex", "GraphWalkEngine"]

_MAGIC = b"GRPH"
_HEADER = struct.Struct("<4sQI")  # magic, vertex id, degree
_NEIGHBOR = struct.Struct("<Q")


def encode_vertex(vertex_id: int, neighbors: List[int],
                  page_size: int) -> bytes:
    """Serialize a vertex into one flash page."""
    if vertex_id < 0:
        raise ValueError("negative vertex id")
    blob = _HEADER.pack(_MAGIC, vertex_id, len(neighbors))
    blob += b"".join(_NEIGHBOR.pack(n) for n in neighbors)
    if len(blob) > page_size:
        raise ValueError(
            f"vertex {vertex_id} with {len(neighbors)} neighbors does not "
            f"fit a {page_size}-byte page")
    return blob


def decode_vertex(data: bytes) -> Tuple[int, List[int]]:
    """Parse a vertex page -> (vertex_id, neighbors)."""
    magic, vertex_id, degree = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise ValueError("not a vertex page")
    neighbors = [
        _NEIGHBOR.unpack_from(data, _HEADER.size + i * _NEIGHBOR.size)[0]
        for i in range(degree)
    ]
    return vertex_id, neighbors


class GraphWalkEngine(Engine):
    """Parses a vertex page and selects the next hop.

    The per-page work is header parsing, so the engine runs at a high
    stream rate; the walk's cost is dominated by storage latency, not
    compute.  ``pick`` selects deterministically among neighbors so runs
    are reproducible: neighbor ``step % degree`` at each step.
    """

    def __init__(self, sim: Simulator):
        super().__init__(sim, 2.0, name="graphwalk-engine")
        self.step = 0

    def process_page(self, data: bytes,
                     context=None) -> Tuple[int, Optional[int]]:
        """-> (vertex_id, next_vertex or None at a sink)."""
        vertex_id, neighbors = decode_vertex(data)
        if not neighbors:
            return vertex_id, None
        nxt = neighbors[self.step % len(neighbors)]
        self.step += 1
        return vertex_id, nxt
