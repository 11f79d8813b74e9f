"""Raw NAND flash substrate.

Layers, bottom-up:

* :mod:`~repro.flash.geometry` — chips/buses/blocks/pages addressing
  (:class:`PhysAddr`), the cluster's global address space currency.
* :mod:`~repro.flash.store` — sparse page payload store (real bytes).
* :mod:`~repro.flash.ecc` — real SECDED codec (single-correct,
  double-detect per 64-bit word).
* :mod:`~repro.flash.health` — wear tracking and bad-block tables.
* :mod:`~repro.flash.chip` — per-die timing, NAND program/erase rules,
  wear-scaled bit-error injection.
* :mod:`~repro.flash.controller` — the tagged, out-of-order,
  error-corrected card controller (:class:`FlashCard`); a read returns
  the page's bytes.
* :mod:`~repro.flash.device` — a node's cards with their shared
  wear/bad-block/payload state; ``card_of`` names an address's card.
* :mod:`~repro.flash.coalesce` — the splitter's admission-side
  coalescing engine: stripe-adjacent page reads and programs merge into
  multi-page commands (:class:`Coalescer`).
* :mod:`~repro.flash.splitter` — multi-user access, each user capped to
  a share of the card's tags (what the paper's tag renaming enforces).
* :mod:`~repro.flash.server` — Flash Server: in-order streaming interface
  plus the Address Translation Unit for file-handle access.
"""

from .chip import (
    BadBlockProgramError,
    EraseError,
    ErrorModel,
    FlashChip,
    FlashTiming,
    ProgramError,
    ProgramFailedError,
)
from .coalesce import Coalescer, first_group
from .controller import (
    FlashCard,
    PartialReadError,
    UncorrectablePageError,
)
from .ecc import UncorrectableError
from .geometry import DEFAULT_GEOMETRY, FlashGeometry, PhysAddr
from .health import BadBlockTable, WearTracker
from .server import FileHandle, FlashServer
from .splitter import FlashSplitter, SplitterPort
from .store import PageStore

__all__ = [
    "FlashGeometry",
    "PhysAddr",
    "DEFAULT_GEOMETRY",
    "PageStore",
    "WearTracker",
    "BadBlockTable",
    "FlashTiming",
    "ErrorModel",
    "FlashChip",
    "ProgramError",
    "BadBlockProgramError",
    "ProgramFailedError",
    "EraseError",
    "FlashCard",
    "UncorrectablePageError",
    "PartialReadError",
    "UncorrectableError",
    "FlashSplitter",
    "SplitterPort",
    "Coalescer",
    "first_group",
    "FlashServer",
    "FileHandle",
]
