"""Flash health bookkeeping: wear (P/E cycles) and bad blocks.

NAND "has limited program/erase cycles and frequent errors" (Section 3.1);
the controller stack therefore tracks per-block erase counts and the
blocks that go bad in service.  The FTL's wear leveler and the chip
model's error injector both consume this state.
"""

from __future__ import annotations

from typing import Dict, ItemsView, Set, Tuple

from .geometry import PhysAddr

__all__ = ["WearTracker", "BadBlockTable"]

_BlockKey = Tuple[int, int, int, int, int]


def _block_key(addr: PhysAddr) -> _BlockKey:
    return addr[:5]


class WearTracker:
    """Per-block program/erase cycle accounting.

    ``endurance`` is the rated P/E cycle budget (default 3000, typical for
    the era's MLC NAND).  Blocks past endurance are candidates for
    retirement, and the chip error model scales its bit-error rate with
    ``wear_fraction``.
    """

    def __init__(self, endurance: int = 3000):
        if endurance < 1:
            raise ValueError(f"endurance must be >= 1, got {endurance}")
        self.endurance = endurance
        self._erases: Dict[_BlockKey, int] = {}

    def record_erase(self, addr: PhysAddr) -> int:
        """Count one erase of ``addr``'s block; returns the new count."""
        key = _block_key(addr)
        count = self._erases.get(key, 0) + 1
        self._erases[key] = count
        return count

    def erase_count(self, addr: PhysAddr) -> int:
        return self._erases.get(_block_key(addr), 0)

    def block_erase_count(self, key: _BlockKey) -> int:
        """:meth:`erase_count` by block key ``(node, card, bus, chip,
        block)``, for callers that hold no address."""
        return self._erases.get(key, 0)

    def erase_counts(self) -> ItemsView[_BlockKey, int]:
        """``(block key, erase count)`` of every block erased so far."""
        return self._erases.items()

    def wear_fraction(self, addr: PhysAddr) -> float:
        """Erase count relative to rated endurance (may exceed 1.0)."""
        return self.erase_count(addr) / self.endurance

    @property
    def total_erases(self) -> int:
        return sum(self._erases.values())

    @property
    def max_erase_count(self) -> int:
        return max(self._erases.values(), default=0)

    def spread(self) -> int:
        """Max − min erase count over *touched* blocks (0 if none).

        The static wear leveler's trigger: a large spread means hot
        blocks are burning through their endurance while cold blocks
        sit on cycles the device will never reclaim on its own.
        """
        if not self._erases:
            return 0
        counts = self._erases.values()
        return max(counts) - min(counts)


class BadBlockTable:
    """Grown bad blocks.

    A block is added when the controller sees uncorrectable errors or
    erase failures; a fresh table has no bad blocks.
    """

    def __init__(self):
        self._grown: Set[_BlockKey] = set()

    @property
    def pristine(self) -> bool:
        """True when no block anywhere is bad (hot-path fast test).

        With no grown failures, per-address ``is_bad`` checks are pure
        overhead; multi-page commands skip them wholesale while this
        holds.
        """
        return not self._grown

    def is_bad(self, addr: PhysAddr) -> bool:
        return _block_key(addr) in self._grown

    def mark_bad(self, addr: PhysAddr) -> None:
        """Retire a block that failed in service (grown bad block)."""
        self._grown.add(_block_key(addr))

    @property
    def grown_bad_count(self) -> int:
        return len(self._grown)
