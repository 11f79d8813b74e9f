"""A node's storage device: multiple flash cards behind one interface.

Each BlueDBM node carries two custom flash cards (Section 5.1); the
storage device routes physical addresses to the right card and shares the
wear/bad-block/payload state so host-side flash management sees one
device, as the paper's software stack does.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..sim import Simulator
from .chip import ErrorModel, FlashTiming
from .controller import FlashCard
from .geometry import DEFAULT_GEOMETRY, FlashGeometry, PhysAddr
from .health import BadBlockTable, WearTracker
from .store import PageStore

__all__ = ["StorageDevice"]


class StorageDevice:
    """All flash cards of one node, with shared management state."""

    def __init__(self, sim: Simulator,
                 geometry: FlashGeometry = DEFAULT_GEOMETRY,
                 timing: Optional[FlashTiming] = None,
                 errors: Optional[ErrorModel] = None,
                 node: int = 0, seed: int = 0,
                 endurance: int = 3000):
        self.sim = sim
        self.geometry = geometry
        self.node = node
        self.store = PageStore(geometry)
        self.wear = WearTracker(endurance=endurance)
        self.badblocks = BadBlockTable()
        self.cards: List[FlashCard] = [
            FlashCard(sim, geometry=geometry, timing=timing, errors=errors,
                      wear=self.wear, badblocks=self.badblocks,
                      store=self.store, node=node, card=index,
                      seed=seed)
            for index in range(geometry.cards_per_node)
        ]
        # Optional repro.faults.FaultInjector shared by every chip.
        self.faults = None

    def install_faults(self, injector) -> None:
        """Install a fault injector on every chip of every card."""
        self.faults = injector
        for card in self.cards:
            for chip in card.chips.values():
                chip.faults = injector

    def _card(self, addr: PhysAddr) -> FlashCard:
        if addr.node != self.node:
            raise ValueError(
                f"{addr} is on node {addr.node}, not {self.node}")
        if not 0 <= addr.card < len(self.cards):
            raise ValueError(f"{addr} addresses a nonexistent card")
        return self.cards[addr.card]

    # -- routed operations (DES generators) ---------------------------------
    def read_page(self, addr: PhysAddr, request=None):
        return (yield from self._card(addr).read_page(addr, request=request))

    def read_pages(self, addrs, requests=None):
        """Multi-page command routed to one card (DES generator).

        A coalesced command is a single tagged operation on a single
        card, so every address must land on the same card — the
        splitter's coalescing stage never merges across that boundary.
        """
        if not addrs:
            return []
        cards = {addr.card for addr in addrs}
        if len(cards) > 1:
            raise ValueError(
                f"multi-page command spans cards {sorted(cards)}; "
                f"coalesced commands are per-card")
        return (yield from self._card(addrs[0]).read_pages(
            addrs, requests=requests))

    def program_pages(self, addrs, datas, requests=None):
        """Multi-page program command routed to one card (DES generator).

        Mirrors :meth:`read_pages`: a coalesced program is a single
        tagged operation on a single card, so every address must land
        on the same card.
        """
        if not addrs:
            return
        cards = {addr.card for addr in addrs}
        if len(cards) > 1:
            raise ValueError(
                f"multi-page command spans cards {sorted(cards)}; "
                f"coalesced commands are per-card")
        yield from self._card(addrs[0]).program_pages(addrs, datas,
                                                      requests=requests)

    def write_page(self, addr: PhysAddr, data: bytes, request=None):
        yield from self._card(addr).write_page(addr, data, request=request)

    def erase_block(self, addr: PhysAddr, request=None):
        yield from self._card(addr).erase_block(addr, request=request)

    # -- aggregates ----------------------------------------------------------
    @property
    def tag_count(self) -> int:
        """Combined tag pool across cards (splitter fair-share sizing)."""
        return sum(card.tag_count for card in self.cards)

    @property
    def reads(self) -> int:
        return sum(card.reads.value for card in self.cards)

    @property
    def writes(self) -> int:
        return sum(card.writes.value for card in self.cards)

    @property
    def erases(self) -> int:
        return sum(card.erases.value for card in self.cards)

    @property
    def program_failures(self) -> int:
        return sum(card.program_failures.value for card in self.cards)

    @property
    def uncorrectable_reads(self) -> int:
        return sum(card.uncorrectable.value for card in self.cards)

    def peak_read_bandwidth(self) -> float:
        """Aggregate card ceiling: 2 x 1.2 GB/s with paper defaults."""
        return sum(card.peak_read_bandwidth() for card in self.cards)
