"""Sparse page payload store: the *contents* of the simulated flash.

A 1 TB card obviously cannot be held in host RAM, and the bandwidth
experiments don't need payloads at all — only the applications do.  The
store therefore keeps real bytes only for pages something has written;
reads of untouched pages synthesize the erased pattern (0xFF, as real
NAND reads after erase).

ECC parity (see :mod:`repro.flash.ecc`) is computed on program and kept
alongside the data so the controller can genuinely correct injected bit
errors on read.

Pages are indexed by block so that block erase — the hot operation under
garbage collection — is O(pages in block), not O(pages in store).

Parity is computed *lazily*: real controllers encode in hardware for
free, but in the simulator SECDED encoding of every programmed page
would dominate run time, and the decoder only ever needs parity for the
small fraction of reads that take an injected bit error.  The lazily
computed parity is cached per page and always reflects the clean stored
data, so correction behaviour is identical.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import ecc
from .geometry import FlashGeometry, PhysAddr

__all__ = ["PageStore"]

_BlockKey = Tuple[int, int, int, int, int]  # node, card, bus, chip, block


class _Page:
    __slots__ = ("data", "parity")

    def __init__(self, data: bytes):
        self.data = data
        self.parity: Optional[bytes] = None


def _block_key(addr: PhysAddr) -> _BlockKey:
    return addr[:5]


class PageStore:
    """Maps :class:`PhysAddr` -> (data, parity) for programmed pages."""

    def __init__(self, geometry: FlashGeometry):
        self.geometry = geometry
        self._blocks: Dict[_BlockKey, Dict[int, _Page]] = {}
        self._erased_page = b"\xff" * geometry.page_size
        self._erased_parity: Optional[bytes] = None

    def program(self, addr: PhysAddr, data: bytes) -> None:
        """Store ``data`` (padded with 0xFF to page size)."""
        page_size = self.geometry.page_size
        if len(data) > page_size:
            raise ValueError(
                f"data ({len(data)} B) exceeds page size ({page_size} B)")
        if len(data) < page_size:
            data = data + b"\xff" * (page_size - len(data))
        self._blocks.setdefault(_block_key(addr), {})[addr.page] = _Page(data)

    def _lookup(self, addr: PhysAddr) -> Optional[_Page]:
        block = self._blocks.get(_block_key(addr))
        if block is None:
            return None
        return block.get(addr.page)

    def read(self, addr: PhysAddr) -> Tuple[bytes, bytes]:
        """Return (data, parity); erased pattern if never programmed."""
        page = self._lookup(addr)
        if page is None:
            if self._erased_parity is None:
                self._erased_parity = ecc.encode_page(self._erased_page)
            return self._erased_page, self._erased_parity
        if page.parity is None:
            page.parity = ecc.encode_page(page.data)
        return page.data, page.parity

    def read_data(self, addr: PhysAddr) -> bytes:
        """Return just the page data (no parity computation)."""
        page = self._lookup(addr)
        return self._erased_page if page is None else page.data

    def parity(self, addr: PhysAddr) -> bytes:
        """Parity of the clean stored page (computed lazily, cached)."""
        return self.read(addr)[1]

    def erase_block(self, addr: PhysAddr) -> int:
        """Drop every programmed page in ``addr``'s block.

        Returns the number of pages discarded.
        """
        block = self._blocks.pop(_block_key(addr), None)
        return 0 if block is None else len(block)
