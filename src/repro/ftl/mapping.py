"""Logical-to-physical page mapping state and the GC victim index.

BlueDBM moves flash management out of the device "into file system/block
device driver" (Section 3.1): the mapping, validity and allocation state
below is host-side software state, exactly like the paper's full-fledged
FTL "implemented in the device driver, similar to Fusion IO's driver".

:class:`PageMap` also indexes the *sealed* (fully programmed) blocks for
greedy GC: a lazy-deletion min-heap of ``(valid_count, block_key)``.
Every validity change on a sealed block pushes the block's new count,
so each sealed block always has one entry carrying its current count;
:meth:`PageMap.min_victim` drops top entries that are unsealed or stale
and so answers exactly what ``min((valid_count, key))`` over the sealed
set would, tiebreak included.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..flash import FlashGeometry, PhysAddr

__all__ = ["PageMap"]

_BlockKey = Tuple[int, int, int, int, int]


def _block_key(addr: PhysAddr) -> _BlockKey:
    return (addr.node, addr.card, addr.bus, addr.chip, addr.block)


class PageMap:
    """Bidirectional LPN <-> physical page map with validity tracking
    and the GC victim index over sealed blocks."""

    def __init__(self, geometry: FlashGeometry):
        self.geometry = geometry
        self._l2p: Dict[int, PhysAddr] = {}
        self._p2l: Dict[PhysAddr, int] = {}
        #: block -> its valid page numbers.
        self._blocks: Dict[_BlockKey, Set[int]] = {}
        #: fully programmed blocks: the GC candidates.
        self.sealed: Set[_BlockKey] = set()
        self._victims: List[Tuple[int, _BlockKey]] = []

    def lookup(self, lpn: int) -> Optional[PhysAddr]:
        """Physical location of a logical page, or None if unmapped."""
        return self._l2p.get(lpn)

    def reverse(self, addr: PhysAddr) -> Optional[int]:
        """LPN stored at a physical page, or None if invalid/free."""
        return self._p2l.get(addr)

    def map_page(self, lpn: int, addr: PhysAddr) -> Optional[PhysAddr]:
        """Point ``lpn`` at ``addr``; returns the invalidated old address."""
        if lpn < 0:
            raise ValueError(f"negative LPN {lpn}")
        old = self._l2p.get(lpn)
        if old is not None:
            self._invalidate(old)
        self._l2p[lpn] = addr
        self._p2l[addr] = lpn
        key = _block_key(addr)
        valid = self._blocks.get(key)
        if valid is None:
            valid = self._blocks[key] = set()
        valid.add(addr.page)
        if key in self.sealed:
            self._push(len(valid), key)
        return old

    def unmap(self, lpn: int) -> Optional[PhysAddr]:
        """TRIM: drop the mapping; returns the invalidated address."""
        old = self._l2p.pop(lpn, None)
        if old is not None:
            self._invalidate(old)
        return old

    def _invalidate(self, addr: PhysAddr) -> None:
        self._p2l.pop(addr, None)
        key = _block_key(addr)
        valid = self._blocks.get(key)
        if valid is not None:
            valid.discard(addr.page)
            if key in self.sealed:
                self._push(len(valid), key)

    def valid_count(self, addr: PhysAddr) -> int:
        """Valid pages in ``addr``'s block (allocates nothing)."""
        return len(self._blocks.get(_block_key(addr), ()))

    def drop_block(self, addr: PhysAddr) -> None:
        """Forget a block's state after erase (all pages must be invalid)."""
        key = _block_key(addr)
        if self._blocks.get(key):
            raise ValueError(
                f"erasing block {addr.block_addr()} with "
                f"{len(self._blocks[key])} valid pages")
        self._blocks.pop(key, None)

    def valid_pages_of(self, addr: PhysAddr) -> Iterator[PhysAddr]:
        """Addresses of the still-valid pages in ``addr``'s block."""
        valid = self._blocks.get(_block_key(addr))
        if valid is None:
            return
        base = addr.block_addr()
        for page in sorted(valid):
            yield PhysAddr(node=base.node, card=base.card, bus=base.bus,
                           chip=base.chip, block=base.block, page=page)

    @property
    def mapped_count(self) -> int:
        return len(self._l2p)

    # -- GC victim index ---------------------------------------------------
    def seal(self, key: _BlockKey) -> None:
        """Make a fully programmed block a GC candidate."""
        self.sealed.add(key)
        self._push(len(self._blocks.get(key, ())), key)

    def unseal(self, key: _BlockKey) -> None:
        """Withdraw a block from GC (collected or evacuated)."""
        self.sealed.discard(key)
        self._bound_heap()

    def min_victim(self) -> Optional[_BlockKey]:
        """The sealed block with the fewest valid pages, ties broken by
        key, or None when nothing is sealed.  The entry stays indexed:
        a block GC declines (every page still valid) stays eligible."""
        heap = self._victims
        while heap:
            count, key = heap[0]
            if (key in self.sealed
                    and count == len(self._blocks.get(key, ()))):
                return key
            heapq.heappop(heap)
        return None

    def _push(self, count: int, key: _BlockKey) -> None:
        heapq.heappush(self._victims, (count, key))
        self._bound_heap()

    def _bound_heap(self) -> None:
        """Rebuild from the sealed set once stale entries pile up, so
        the heap stays within ``4 * len(sealed) + 64`` entries."""
        if len(self._victims) > 4 * len(self.sealed) + 64:
            self._victims = [(len(self._blocks.get(key, ())), key)
                             for key in self.sealed]
            heapq.heapify(self._victims)
