"""Logical-to-physical page mapping state.

BlueDBM moves flash management out of the device "into file system/block
device driver" (Section 3.1): the mapping, validity and allocation state
below is host-side software state, exactly like the paper's full-fledged
FTL "implemented in the device driver, similar to Fusion IO's driver".
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, Tuple

from ..flash import FlashGeometry, PhysAddr

__all__ = ["PageMap", "BlockState"]

_BlockKey = Tuple[int, int, int, int, int]


def _block_key(addr: PhysAddr) -> _BlockKey:
    return (addr.node, addr.card, addr.bus, addr.chip, addr.block)


class BlockState:
    """Validity bookkeeping for one physical block."""

    __slots__ = ("addr", "valid_pages")

    def __init__(self, addr: PhysAddr):
        self.addr = addr.block_addr()
        self.valid_pages: Set[int] = set()

    @property
    def valid_count(self) -> int:
        return len(self.valid_pages)


class PageMap:
    """Bidirectional LPN <-> physical page map with validity tracking."""

    def __init__(self, geometry: FlashGeometry):
        self.geometry = geometry
        self._l2p: Dict[int, PhysAddr] = {}
        self._p2l: Dict[PhysAddr, int] = {}
        self._blocks: Dict[_BlockKey, BlockState] = {}

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
        state = self._block_state(addr)
        state.valid_pages.add(addr.page)
        return old

    def unmap(self, lpn: int) -> Optional[PhysAddr]:
        """TRIM: drop the mapping; returns the invalidated address."""
        old = self._l2p.pop(lpn, None)
        if old is not None:
            self._invalidate(old)
        return old

    def _invalidate(self, addr: PhysAddr) -> None:
        self._p2l.pop(addr, None)
        state = self._blocks.get(_block_key(addr))
        if state is not None:
            state.valid_pages.discard(addr.page)

    def _block_state(self, addr: PhysAddr) -> BlockState:
        key = _block_key(addr)
        state = self._blocks.get(key)
        if state is None:
            state = BlockState(addr)
            self._blocks[key] = state
        return state

    def block_state(self, addr: PhysAddr) -> BlockState:
        """Public accessor (creates state lazily)."""
        return self._block_state(addr)

    def drop_block(self, addr: PhysAddr) -> None:
        """Forget a block's state after erase (all pages must be invalid)."""
        key = _block_key(addr)
        state = self._blocks.get(key)
        if state is not None and state.valid_pages:
            raise ValueError(
                f"erasing block {addr.block_addr()} with "
                f"{state.valid_count} valid pages")
        self._blocks.pop(key, None)

    def valid_pages_of(self, addr: PhysAddr) -> Iterator[PhysAddr]:
        """Addresses of the still-valid pages in ``addr``'s block."""
        state = self._blocks.get(_block_key(addr))
        if state is None:
            return
        base = addr.block_addr()
        for page in sorted(state.valid_pages):
            yield PhysAddr(node=base.node, card=base.card, bus=base.bus,
                           chip=base.chip, block=base.block, page=page)

    @property
    def mapped_count(self) -> int:
        return len(self._l2p)
