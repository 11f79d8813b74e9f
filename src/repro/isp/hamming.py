"""Hamming-distance engine for LSH nearest-neighbour search (Section 7.1).

"We have built a LSH query accelerator, where all of the data is stored
in flash and the distance calculation is done by the in-store processor
on the storage device.  For simplicity, we assume 8KB data items, and
calculate the hamming distance between the query data and each of the
items in the hash bucket."

The functional core really computes the Hamming distance over full page
bytes; timing-wise one engine bank keeps up with the node's full flash
bandwidth, which is the architectural claim the figures rest on.
"""

from __future__ import annotations

from typing import Optional

from ..core.accel import Engine
from ..sim import Simulator

__all__ = ["hamming_distance", "HammingEngine"]


def hamming_distance(a: bytes, b: bytes) -> int:
    """Bit-level Hamming distance; shorter input is zero-padded."""
    if len(a) < len(b):
        a = a + b"\x00" * (len(b) - len(a))
    elif len(b) < len(a):
        b = b + b"\x00" * (len(a) - len(b))
    return (int.from_bytes(a, "little")
            ^ int.from_bytes(b, "little")).bit_count()


class HammingEngine(Engine):
    """One in-store distance calculator holding the query page."""

    def __init__(self, sim: Simulator, query: bytes,
                 bytes_per_ns: float = 0.4, name: str = "hamming-engine"):
        super().__init__(sim, bytes_per_ns, name=name)
        self.query = bytes(query)

    def process_page(self, data: bytes, context=None) -> int:
        """Hamming distance between the stored query and this item."""
        return hamming_distance(self.query, data)
