"""Logical-to-physical page mapping state and the GC victim index.

BlueDBM moves flash management out of the device "into file system/block
device driver" (Section 3.1): the mapping, validity and allocation state
below is host-side software state, exactly like the paper's full-fledged
FTL "implemented in the device driver, similar to Fusion IO's driver".

The state is flat and integer-valued.  Blocks are named by the dense
*block number* (the mixed-radix index of ``(card, bus, chip, block)``,
which ``geometry.from_linear(number * pages_per_block)`` decodes) and
pages by the node-local *physical page number* ``number *
pages_per_block + page``.  L2P is an ``array('q')`` indexed by LPN
holding each page's physical page number (``-1`` = unmapped), 8 bytes
a slot; it grows on demand, since a core on the 1 TB default geometry
touches only the LPNs it writes.  P2L and validity are kept per block
number: one ``array`` of LPNs per block (``-1`` = invalid or free) plus
its valid-page count and its ``(node, card, bus, chip, block)`` key,
cached while the block holds mapped pages.  :meth:`PageMap.lookup`
builds the :class:`~repro.flash.PhysAddr` it returns from that key on
each call (a fresh tuple, so compare addresses with ``==``, never
``is``).  Within one node the block number orders exactly like the
block key, so it can stand in for the key everywhere the key is
compared.

:class:`PageMap` also indexes the *sealed* (fully programmed) blocks for
greedy GC: a seal flag per block number plus a lazy-deletion min-heap
of ``(valid_count, block_number)``.  Every validity change on a sealed
block pushes the block's new count, so each sealed block always has one
entry carrying its current count; :meth:`PageMap.min_victim` drops top
entries that are unsealed or stale and so answers exactly what
``min((valid_count, key))`` over the sealed set would, tiebreak
included.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..flash import FlashGeometry, PhysAddr

__all__ = ["PageMap"]

_BlockKey = Tuple[int, int, int, int, int]

#: Builds a :class:`PhysAddr` from fields already known to be valid.
_new = tuple.__new__


class PageMap:
    """Bidirectional LPN <-> physical page map of one node, with
    validity tracking and the GC victim index over sealed blocks."""

    def __init__(self, geometry: FlashGeometry, node: int = 0):
        self.geometry = geometry
        self.node = node
        self._ppb = geometry.pages_per_block
        self._chips = geometry.chips_per_bus
        self._buses = geometry.buses_per_card
        self._bpc = geometry.blocks_per_chip
        #: LPN -> physical page number (-1 = unmapped).
        self._l2p = array("q")
        #: block number -> LPN per page (-1 = invalid or free).
        self._p2l: Dict[int, array] = {}
        #: block number -> its count of valid pages.
        self._valid: Dict[int, int] = {}
        #: block number -> its block key, for the addresses handed out.
        self._keys: Dict[int, _BlockKey] = {}
        self._blank = array("q", [-1]) * self._ppb
        #: per block number: 1 once fully programmed (a GC candidate).
        self._sealed = bytearray(geometry.pages_per_node // self._ppb)
        self._n_sealed = 0
        self._victims: List[Tuple[int, int]] = []

    # -- block numbering ---------------------------------------------------
    def _number(self, card: int, bus: int, chip: int, block: int) -> int:
        # map_page and reverse inline this: they run per request.
        return ((card * self._buses + bus) * self._chips + chip) \
            * self._bpc + block

    def _key_of(self, number: int) -> _BlockKey:
        return self.geometry.from_linear(number * self._ppb, self.node)[:5]

    def _check_node(self, addr) -> None:
        """Reject an address or block key of another node."""
        if addr[0] != self.node:
            raise ValueError(f"{addr} is not on node {self.node}")

    # -- mapping -----------------------------------------------------------
    def lookup(self, lpn: int) -> Optional[PhysAddr]:
        """Physical location of a logical page, or None if unmapped."""
        if lpn >= 0:
            try:
                ppn = self._l2p[lpn]
            except IndexError:
                return None
            if ppn >= 0:
                ppb = self._ppb
                return _new(PhysAddr, self._keys[ppn // ppb] + (ppn % ppb,))
        return None

    def reverse(self, addr: PhysAddr) -> Optional[int]:
        """LPN stored at a physical page, or None if invalid/free."""
        node, card, bus, chip, block, page = addr
        lpns = self._p2l.get(((card * self._buses + bus) * self._chips
                              + chip) * self._bpc + block)
        if lpns is None or node != self.node:
            return None
        lpn = lpns[page]
        return None if lpn < 0 else lpn

    def map_page(self, lpn: int, addr: PhysAddr) -> None:
        """Point ``lpn`` at ``addr``, invalidating its old page."""
        if lpn < 0:
            raise ValueError(f"negative LPN {lpn}")
        node, card, bus, chip, block, page = addr
        if node != self.node:
            self._check_node(addr)
        number = ((card * self._buses + bus) * self._chips + chip) \
            * self._bpc + block
        ppb = self._ppb
        l2p = self._l2p
        if lpn < len(l2p):
            ppn = l2p[lpn]
            if ppn >= 0:
                self._invalidate(ppn)
        else:
            l2p.extend(array("q", [-1]) * (lpn + 1 - len(l2p)))
        l2p[lpn] = number * ppb + page
        lpns = self._p2l.get(number)
        if lpns is None:
            lpns = self._p2l[number] = self._blank[:]
            self._valid[number] = 0
            self._keys[number] = (node, card, bus, chip, block)
        if lpns[page] < 0:
            self._valid[number] += 1
        lpns[page] = lpn
        if self._sealed[number]:
            self._push(self._valid[number], number)

    def map_group(self, start: int, blocks: Sequence[_BlockKey]) -> None:
        """Map a whole stripe group of fresh blocks at once, and seal
        them: LPN ``start + page * len(blocks) + i`` lands on page
        ``page`` of ``blocks[i]``, the order the allocator hands the
        group's pages out in.  Any LPN of the run that was mapped
        before is invalidated first, as :meth:`map_page` would."""
        for key in blocks:
            self._check_node(key)
        ppb = self._ppb
        units = len(blocks)
        end = start + units * ppb
        l2p = self._l2p
        for ppn in l2p[start:end]:
            if ppn >= 0:
                self._invalidate(ppn)
        if len(l2p) < end:
            l2p.extend(array("q", [-1]) * (end - len(l2p)))
        for unit, key in enumerate(blocks):
            number = self._number(*key[1:])
            first = number * ppb
            l2p[start + unit:end:units] = array("q", range(first, first + ppb))
            self._p2l[number] = array("q", range(start + unit, end, units))
            self._valid[number] = ppb
            self._keys[number] = key
            self._seal_number(number)

    def unmap(self, lpn: int) -> None:
        """TRIM: drop the mapping (nothing to do if ``lpn`` is unmapped)."""
        if 0 <= lpn < len(self._l2p):
            ppn = self._l2p[lpn]
            if ppn >= 0:
                self._invalidate(ppn)
                self._l2p[lpn] = -1

    def _invalidate(self, ppn: int) -> None:
        number = ppn // self._ppb
        page = ppn % self._ppb
        lpns = self._p2l.get(number)
        if lpns is not None:
            if lpns[page] >= 0:
                lpns[page] = -1
                self._valid[number] -= 1
            if self._sealed[number]:
                self._push(self._valid[number], number)

    def valid_count(self, addr: PhysAddr) -> int:
        """Valid pages in ``addr``'s block (allocates nothing)."""
        return self._valid.get(self._number(*addr[1:5]), 0)

    def drop_block(self, addr: PhysAddr) -> None:
        """Forget a block's state after erase (all pages must be invalid)."""
        number = self._number(*addr[1:5])
        if self._valid.get(number):
            raise ValueError(
                f"erasing block {addr.block_addr()} with "
                f"{self._valid[number]} valid pages")
        self._p2l.pop(number, None)
        self._valid.pop(number, None)
        self._keys.pop(number, None)

    def valid_pages_of(self, addr: PhysAddr) -> Iterator[PhysAddr]:
        """Addresses of the still-valid pages in ``addr``'s block."""
        lpns = self._p2l.get(self._number(*addr[1:5]))
        if lpns is None:
            return
        base = addr[:5]
        for page, lpn in enumerate(lpns):
            if lpn >= 0:
                yield _new(PhysAddr, base + (page,))

    @property
    def mapped_count(self) -> int:
        return len(self._l2p) - self._l2p.count(-1)

    # -- GC victim index ---------------------------------------------------
    @property
    def sealed(self) -> FrozenSet[_BlockKey]:
        """Keys of the sealed blocks (built on each access)."""
        flags = self._sealed
        found = []
        number = flags.find(1)
        while number >= 0:
            found.append(self._key_of(number))
            number = flags.find(1, number + 1)
        return frozenset(found)

    def seal(self, key: _BlockKey) -> None:
        """Make a fully programmed block a GC candidate."""
        self._seal_number(self._number(*key[1:]))

    def _seal_number(self, number: int) -> None:
        if not self._sealed[number]:
            self._sealed[number] = 1
            self._n_sealed += 1
        self._push(self._valid.get(number, 0), number)

    def unseal(self, key: _BlockKey) -> None:
        """Withdraw a block from GC (collected or evacuated)."""
        number = self._number(*key[1:])
        if self._sealed[number]:
            self._sealed[number] = 0
            self._n_sealed -= 1
        self._bound_heap()

    def min_victim(self) -> Optional[_BlockKey]:
        """The sealed block with the fewest valid pages, ties broken by
        key, or None when nothing is sealed.  The entry stays indexed:
        a block GC declines (every page still valid) stays eligible."""
        heap = self._victims
        while heap:
            count, number = heap[0]
            if (self._sealed[number]
                    and count == self._valid.get(number, 0)):
                return self._key_of(number)
            heapq.heappop(heap)
        return None

    def _push(self, count: int, number: int) -> None:
        heapq.heappush(self._victims, (count, number))
        self._bound_heap()

    def _bound_heap(self) -> None:
        """Rebuild from the seal flags once stale entries pile up, so
        the heap stays within ``4 * sealed blocks + 64`` entries."""
        if len(self._victims) > 4 * self._n_sealed + 64:
            flags = self._sealed
            heap = []
            number = flags.find(1)
            while number >= 0:
                heap.append((self._valid.get(number, 0), number))
                number = flags.find(1, number + 1)
            heapq.heapify(heap)
            self._victims = heap
