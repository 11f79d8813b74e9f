"""Physical block allocation with chip-striping and wear awareness.

The allocator hands out *write points* — (block, next page) cursors — so
that sequential logical writes land on different buses/chips and program
in parallel (the "exposing all degrees of parallelism" goal of Section
3.1.1).  Two allocation modes:

* ``striped`` (the default) rotates round-robin over every chip,
  advancing each chip's private open block independently — the seed
  behavior.  Consecutive allocations always land on different buses,
  but the pages are only *stripe-adjacent* while every chip happens to
  share the same open block.
* ``sequential`` hands out write points as stripe-adjacent runs — the
  exact inverse of :meth:`~repro.flash.geometry.FlashGeometry.
  striped_index`.  A *stripe group* (the same block id opened on every
  chip at once) is filled unit-by-unit, page-by-page, so consecutive
  allocations have consecutive striped indices and a logically
  sequential writer's pages merge into multi-page program commands
  downstream.  When no block id is free on every chip (bad blocks,
  fragmented frees), allocation falls back to the striped rotation for
  that page.

Free blocks per chip are kept in a min-heap keyed by erase count
(least-erased-first is the static wear-leveling policy): taking a block
is O(log n) instead of the former sort-per-take.  Heap entries are
re-keyed lazily — an entry whose recorded erase count went stale is
re-pushed at its current count before it can win — so external erases
recorded against free blocks still reorder the heap correctly.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from ..flash import BadBlockTable, FlashGeometry, PhysAddr, WearTracker

__all__ = ["BlockAllocator", "ALLOCATION_MODES"]

_ChipKey = Tuple[int, int, int, int]
_BlockKey = Tuple[int, int, int, int, int]

#: Legal ``mode`` values: the seed's chip rotation and the
#: stripe-adjacent sequential mode logical volumes use.
ALLOCATION_MODES = ("striped", "sequential")


class BlockAllocator:
    """Free-block lists and rotating write points for one flash device."""

    def __init__(self, geometry: FlashGeometry, badblocks: BadBlockTable,
                 wear: WearTracker, node: int = 0,
                 mode: str = "striped"):
        if mode not in ALLOCATION_MODES:
            raise ValueError(f"unknown allocation mode {mode!r}; "
                             f"expected one of {ALLOCATION_MODES}")
        self.geometry = geometry
        self.badblocks = badblocks
        self.wear = wear
        self.node = node
        self.mode = mode
        #: Authoritative per-chip free membership; the heap may carry
        #: stale entries that are skipped at pop time.
        self._free: Dict[_ChipKey, Set[int]] = {}
        self._heaps: Dict[_ChipKey, List[Tuple[int, int]]] = {}
        self._chips: List[_ChipKey] = []
        # Bus-fastest rotation: consecutive allocations land on different
        # buses, so short sequential runs still engage every channel.
        # This enumeration order is exactly the striped unit order
        # (bus-fastest, then card, then chip), which is what makes
        # sequential mode's unit walk stripe-adjacent.
        erase_count = wear.block_erase_count
        for chip in range(geometry.chips_per_bus):
            for card in range(geometry.cards_per_node):
                for bus in range(geometry.buses_per_card):
                    key = (node, card, bus, chip)
                    self._chips.append(key)
                    blocks = range(geometry.blocks_per_chip)
                    if not badblocks.pristine:
                        blocks = [b for b in blocks
                                  if not badblocks.is_bad_block(key + (b,))]
                    self._free[key] = set(blocks)
                    heap = [(erase_count(key + (b,)), b) for b in blocks]
                    heapq.heapify(heap)
                    self._heaps[key] = heap
        self._rr = 0  # round-robin cursor over chips
        # Open write point per chip: (block, next_page).
        self._open: Dict[_ChipKey, Optional[Tuple[int, int]]] = {
            key: None for key in self._chips}
        # Sequential mode's open stripe group: (block, unit, page).
        self._seq_open: Optional[Tuple[int, int, int]] = None
        # Chips pulled out of allocation (evacuation of a dying chip);
        # they stay in ``_chips`` so striped-unit numbering is stable,
        # but every allocation path skips them.
        self._retired: Set[_ChipKey] = set()

    # -- free space --------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        return sum(len(blocks) for blocks in self._free.values())

    def _take_block(self, key: _ChipKey) -> Optional[int]:
        """Pop the least-worn free block of a chip (wear leveling).

        Stale heap entries (removed blocks, or blocks whose erase count
        moved since push) are dropped or re-keyed lazily, so the block
        returned is least-erased at *take* time — ties broken by block
        id for determinism.
        """
        free = self._free.get(key)
        if not free:
            return None
        heap = self._heaps[key]
        while heap:
            count, block = heap[0]
            if block not in free:
                heapq.heappop(heap)
                continue
            current = self.wear.block_erase_count(key + (block,))
            if current != count:
                heapq.heapreplace(heap, (current, block))
                continue
            heapq.heappop(heap)
            free.discard(block)
            return block
        return None

    def _take_specific(self, key: _ChipKey, block: int) -> None:
        """Claim one named free block (sequential stripe groups)."""
        self._free[key].discard(block)
        # Its heap entry goes stale and is skipped at a later pop.

    # -- write point allocation ----------------------------------------------
    def next_page(self) -> Optional[PhysAddr]:
        """The next physical page to program.

        ``striped`` mode rotates across chips; ``sequential`` mode walks
        the open stripe group in striped-index order (falling back to
        the rotation when no block id is free on every chip).  Returns
        None when the device is out of free space (caller must garbage
        collect).
        """
        if self.mode == "sequential":
            addr = self._next_sequential()
            if addr is not None:
                return addr
        for _ in range(len(self._chips)):
            key = self._chips[self._rr]
            self._rr = (self._rr + 1) % len(self._chips)
            open_ = self._open[key]
            if open_ is None:
                block = self._take_block(key)
                if block is None:
                    continue
                open_ = (block, 0)
            block, page = open_
            addr = tuple.__new__(PhysAddr, key + (block, page))
            page += 1
            self._open[key] = (None if page >= self.geometry.pages_per_block
                               else (block, page))
            return addr
        return None

    def _common_block(self) -> Optional[int]:
        """A block id free on *every* live chip, least total wear first."""
        active = [key for key in self._chips if key not in self._retired]
        if not active:
            return None
        common = set.intersection(
            *(self._free[key] for key in active))
        if not common:
            return None
        # One pass over the erased blocks: untouched blocks add nothing.
        totals = dict.fromkeys(common, 0)
        live = set(active)
        for key, count in self.wear.erase_counts():
            if key[4] in totals and key[:4] in live:
                totals[key[4]] += count
        return min(common, key=lambda b: (totals[b], b))

    def _next_sequential(self) -> Optional[PhysAddr]:
        """One page off the open stripe group, striped-index order.

        Unit-fastest, then page: consecutive calls return addresses with
        consecutive :meth:`FlashGeometry.striped_index` values, which is
        the adjacency the write coalescer merges on.
        """
        open_ = self._seq_open
        if open_ is None:
            block = self._common_block()
            if block is None:
                return None
            for key in self._chips:
                if key not in self._retired:
                    self._take_specific(key, block)
            open_ = self._live_step(block, 0, 0)
        block, unit, page = open_
        chips = self._chips
        addr = tuple.__new__(PhysAddr, chips[unit] + (block, page))
        unit += 1
        if unit < len(chips) and chips[unit] not in self._retired:
            self._seq_open = (block, unit, page)
        else:
            # Step past retired units at once, so the group closes on
            # its last live page.
            self._seq_open = self._live_step(block, unit, page)
        return addr

    def _live_step(self, block: int, unit: int, page: int
                   ) -> Optional[Tuple[int, int, int]]:
        """The first live ``(block, unit, page)`` of the stripe walk at
        or after the given one, or None past the group's last page."""
        chips, retired = self._chips, self._retired
        while True:
            if unit >= len(chips):
                unit = 0
                page += 1
                if page >= self.geometry.pages_per_block:
                    return None
            if chips[unit] not in retired:
                return block, unit, page
            unit += 1

    def take_group(self, limit: int) -> Optional[List[_BlockKey]]:
        """Claim one whole stripe group of at most ``limit`` pages at
        once -> its blocks, as ``(node, card, bus, chip, block)`` keys
        in unit order.

        The next ``len(blocks) * pages_per_block`` calls to
        :meth:`next_page` would return page ``p`` of every block in
        turn, for ``p`` ascending; this leaves the allocator exactly as
        those calls would.  Returns None, changing nothing, when a group
        is partly handed out or the next one does not fit in ``limit``.
        """
        ppb = self.geometry.pages_per_block
        if self.mode == "sequential":
            if self._seq_open is not None:
                return None
            block = self._common_block()
            if block is not None:
                units = [key for key in self._chips
                         if key not in self._retired]
                if len(units) * ppb > limit:
                    return None
                for key in units:
                    self._take_specific(key, block)
                return [key + (block,) for key in units]
        # The rotation (also sequential mode's fallback): with no block
        # open, every chip that has a free block opens its least-worn
        # one in rotation order, and each round programs one page on
        # each of them; chips without a free block are skipped.
        if any(self._open.values()):
            return None
        n_chips = len(self._chips)
        order = [self._chips[(self._rr + i) % n_chips]
                 for i in range(n_chips)]
        units = [key for key in order if self._free[key]]
        if not units or len(units) * ppb > limit:
            return None
        self._rr = (self._chips.index(units[-1]) + 1) % n_chips
        return [key + (self._take_block(key),) for key in units]

    def release_block(self, addr: PhysAddr) -> None:
        """Return an erased block to its chip's free list."""
        key = (addr.node, addr.card, addr.bus, addr.chip)
        if key not in self._free:
            raise ValueError(f"{addr} not managed by this allocator")
        if addr.block in self._free[key]:
            raise ValueError(f"block {addr.block} already free")
        if not self.badblocks.is_bad(addr):
            self._free[key].add(addr.block)
            heapq.heappush(self._heaps[key],
                           (self.wear.erase_count(addr), addr.block))

    def retire_block(self, addr: PhysAddr) -> None:
        """Drop a grown-bad block from circulation permanently."""
        key = (addr.node, addr.card, addr.bus, addr.chip)
        free = self._free.get(key)
        if free is not None:
            free.discard(addr.block)

    def retire_chip(self, card: int, bus: int, chip: int) -> None:
        """Pull a dying chip out of allocation entirely.

        Its free blocks and open write point are dropped, the striped
        rotation stops finding anything on it, and sequential stripe
        groups skip its units in place — the walk stays stripe-adjacent
        on the surviving chips (falling back to the rotation when no
        common block id remains).  Already-allocated pages are the
        caller's to evacuate (:meth:`~repro.ftl.core.FtlCore.
        evacuate_chip`).
        """
        key = (self.node, card, bus, chip)
        if key not in self._free:
            raise ValueError(f"chip ({card}, {bus}, {chip}) not managed "
                             f"by this allocator")
        self._retired.add(key)
        self._free[key].clear()
        self._heaps[key].clear()
        self._open[key] = None
        if self._seq_open is not None:
            # Keep the sequential cursor on a live unit.
            self._seq_open = self._live_step(*self._seq_open)
