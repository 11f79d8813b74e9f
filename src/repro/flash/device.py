"""A node's storage device: multiple flash cards behind one interface.

Each BlueDBM node carries two custom flash cards (Section 5.1); the
storage device shares the wear/bad-block/payload state so host-side
flash management sees one device, as the paper's software stack does.

:meth:`StorageDevice.card_of` names the card an address lives on.  The
splitter and its coalescer resolve the card once with it and command
the card directly, so a multi-page command is one card operation.  The
device's own ``read_page``/``write_page``/``erase_block`` route single
pages for :class:`~repro.ftl.core.FtlCore` on behalf of
:class:`~repro.fs.rfs.RFS` and :class:`~repro.ftl.ftl.BlockDeviceFTL`.
"""

from __future__ import annotations

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

    def card_of(self, addr: PhysAddr) -> FlashCard:
        """The card ``addr`` lives on; the splitter and its coalescer
        resolve it once and command that card directly."""
        if addr.node != self.node:
            raise ValueError(
                f"{addr} is on node {addr.node}, not {self.node}")
        if not 0 <= addr.card < len(self.cards):
            raise ValueError(f"{addr} addresses a nonexistent card")
        return self.cards[addr.card]

    # -- routed operations (DES generators): the port FtlCore drives ------
    def read_page(self, addr: PhysAddr, request=None):
        return (yield from self.card_of(addr).read_page(addr,
                                                        request=request))

    def write_page(self, addr: PhysAddr, data: bytes, request=None):
        yield from self.card_of(addr).write_page(addr, data, request=request)

    def erase_block(self, addr: PhysAddr, request=None):
        yield from self.card_of(addr).erase_block(addr, request=request)

    # -- aggregates ----------------------------------------------------------
    @property
    def tag_count(self) -> int:
        """Combined tag pool across cards (splitter fair-share sizing)."""
        return sum(card.tag_count for card in self.cards)

    @property
    def program_failures(self) -> int:
        return sum(card.program_failures for card in self.cards)

    @property
    def uncorrectable_reads(self) -> int:
        return sum(card.uncorrectable for card in self.cards)

    def peak_read_bandwidth(self) -> float:
        """Aggregate card ceiling: 2 x 1.2 GB/s with paper defaults."""
        return sum(card.peak_read_bandwidth() for card in self.cards)
