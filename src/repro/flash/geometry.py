"""Physical flash geometry and addressing.

BlueDBM exposes *raw* NAND addressing — buses, chips, blocks and pages —
instead of a flat logical block device (Section 3.1.1).  Everything above
the chip (controller, Flash Server, FTL, file system, the cluster's global
address space) speaks :class:`PhysAddr`.

The default geometry matches the paper's custom flash card: 512 GB per
card from 8 buses x 8 chips x 4096 blocks x 256 pages x 8 KB pages, two
cards per node (1 TB/node, Section 5.1).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

__all__ = ["FlashGeometry", "PhysAddr", "DEFAULT_GEOMETRY"]


@dataclass(frozen=True)
class FlashGeometry:
    """Shape of one flash card.

    Attributes mirror the paper's custom card (Section 5.1).  All sizes in
    bytes.  The geometry is per *card*; a node has ``cards_per_node`` of
    them behind one storage device.
    """

    buses_per_card: int = 8
    chips_per_bus: int = 8
    blocks_per_chip: int = 4096
    pages_per_block: int = 256
    page_size: int = 8192
    cards_per_node: int = 2

    def __post_init__(self):
        for name in ("buses_per_card", "chips_per_bus", "blocks_per_chip",
                     "pages_per_block", "page_size", "cards_per_node"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    # -- counts ----------------------------------------------------------
    @property
    def pages_per_chip(self) -> int:
        return self.blocks_per_chip * self.pages_per_block

    @property
    def pages_per_bus(self) -> int:
        return self.chips_per_bus * self.pages_per_chip

    @property
    def pages_per_card(self) -> int:
        return self.buses_per_card * self.pages_per_bus

    @property
    def pages_per_node(self) -> int:
        return self.cards_per_node * self.pages_per_card

    # -- capacities --------------------------------------------------------
    @property
    def card_bytes(self) -> int:
        return self.pages_per_card * self.page_size

    @property
    def node_bytes(self) -> int:
        return self.cards_per_node * self.card_bytes

    # -- address arithmetic -------------------------------------------------
    def from_linear(self, linear: int, node: int = 0) -> "PhysAddr":
        """Address of node-local linear page number ``linear``.

        The number is mixed-radix over (card, bus, chip, block, page),
        page fastest: consecutive linear pages fill a block first, so
        ``linear // pages_per_block`` numbers the node's blocks.  Use
        :meth:`striped` for bus-interleaved layouts.
        """
        if not 0 <= linear < self.pages_per_node:
            raise ValueError(f"linear page {linear} out of range")
        page = linear % self.pages_per_block
        rest = linear // self.pages_per_block
        block = rest % self.blocks_per_chip
        rest //= self.blocks_per_chip
        chip = rest % self.chips_per_bus
        rest //= self.chips_per_bus
        bus = rest % self.buses_per_card
        card = rest // self.buses_per_card
        return PhysAddr(node=node, card=card, bus=bus, chip=chip,
                        block=block, page=page)

    def striped(self, index: int, node: int = 0) -> "PhysAddr":
        """Bus/chip-interleaved address for sequential index ``index``.

        Maps consecutive indices round-robin over every chip before
        advancing the page — *bus-fastest*, so even a short run of
        consecutive pages spans every bus (and both cards).  This is how
        a real controller stripes sequential data to expose parallelism
        (Section 3.1.1 "(ii) exposing all degrees of parallelism"):
        channel-first striping keeps all channels busy for any access
        run, where chip-first striping would serialize short runs on one
        bus.
        """
        if not 0 <= index < self.pages_per_node:
            raise ValueError(f"striped index {index} out of range")
        n_units = (self.cards_per_node * self.buses_per_card
                   * self.chips_per_bus)
        unit = index % n_units
        offset = index // n_units
        bus = unit % self.buses_per_card
        rest = unit // self.buses_per_card
        card = rest % self.cards_per_node
        chip = rest // self.cards_per_node
        block = offset // self.pages_per_block
        page = offset % self.pages_per_block
        return PhysAddr(node=node, card=card, bus=bus, chip=chip,
                        block=block, page=page)

    def striped_index(self, addr: "PhysAddr") -> int:
        """Inverse of :meth:`striped`: the sequential index of ``addr``.

        Two pages are *stripe-adjacent* — the unit the splitter's
        coalescing stage merges — exactly when their striped indices are
        consecutive: that is the order a controller lays out sequential
        data, so a sequential reader touches consecutive indices even
        though they interleave across buses and cards.
        """
        self.validate(addr)
        _node, card, bus, chip, block, page = addr
        n_units = (self.cards_per_node * self.buses_per_card
                   * self.chips_per_bus)
        unit = bus + self.buses_per_card * (card + self.cards_per_node * chip)
        offset = block * self.pages_per_block + page
        return offset * n_units + unit

    def validate(self, addr: "PhysAddr") -> None:
        """Raise ValueError if ``addr`` exceeds this geometry."""
        _node, card, bus, chip, block, page = addr
        if not 0 <= card < self.cards_per_node:
            raise ValueError(f"card {card} out of range")
        if not 0 <= bus < self.buses_per_card:
            raise ValueError(f"bus {bus} out of range")
        if not 0 <= chip < self.chips_per_bus:
            raise ValueError(f"chip {chip} out of range")
        if not 0 <= block < self.blocks_per_chip:
            raise ValueError(f"block {block} out of range")
        if not 0 <= page < self.pages_per_block:
            raise ValueError(f"page {page} out of range")


_ADDR_FIELDS = ("node", "card", "bus", "chip", "block", "page")


class PhysAddr(namedtuple("PhysAddr", _ADDR_FIELDS, defaults=(0,) * 6)):
    """A physical flash page address in the cluster's global address space.

    ``node`` selects the BlueDBM storage device; the remaining fields
    address raw NAND within it.  An immutable tuple of the six fields,
    so addresses key dicts, order and hash exactly as that tuple does.
    Hot builders that already hold valid fields may skip the field
    check with ``tuple.__new__(PhysAddr, (node, card, bus, chip, block,
    page))``.  A named field read costs several plain attribute reads
    on CPython 3.11, so per-request readers slice (``addr[:5]`` is the
    block key) or unpack the tuple instead.
    """

    __slots__ = ()

    def __new__(cls, node: int = 0, card: int = 0, bus: int = 0,
                chip: int = 0, block: int = 0, page: int = 0):
        # Addresses are built in every hot loop; OR-ing the fields is
        # negative iff any field is (two's complement), so the valid
        # case pays one comparison instead of six.
        if (node | card | bus | chip | block | page) < 0:
            for name, value in zip(_ADDR_FIELDS, (node, card, bus, chip,
                                                  block, page)):
                if value < 0:
                    raise ValueError(f"negative {name} in address")
        return tuple.__new__(cls, (node, card, bus, chip, block, page))

    @classmethod
    def _make(cls, iterable) -> "PhysAddr":
        # ``_replace`` builds through here: keep the field check.
        return cls(*iterable)

    def block_addr(self) -> "PhysAddr":
        """Address of page 0 of this page's block (erase granularity)."""
        return tuple.__new__(PhysAddr, self[:5] + (0,))

    def __str__(self) -> str:
        return (f"n{self.node}/c{self.card}/b{self.bus}/ch{self.chip}"
                f"/blk{self.block}/p{self.page}")


DEFAULT_GEOMETRY = FlashGeometry()
