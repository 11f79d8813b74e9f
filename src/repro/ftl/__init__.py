"""Host-side flash management (the paper moves the FTL out of the device).

* :mod:`~repro.ftl.mapping` — L2P/P2L page map with validity tracking.
* :mod:`~repro.ftl.allocator` — chip-striped, wear-aware block allocation.
* :mod:`~repro.ftl.core` — :class:`FtlCore`, the one shared
  map/allocator/GC substrate: it owns the foreground read loop, the
  program-retry loop, GC and chip evacuation, all driven through the
  ``read_page``/``write_page``/``erase_block`` port protocol.
* :mod:`~repro.ftl.ftl` — :class:`BlockDeviceFTL`, the compatibility
  block-device path: a thin shell handing the core its raw device.

(The other shells over the same core are :class:`repro.fs.rfs.RFS`,
over the raw device too, and :class:`repro.volume.LogicalVolume`, over
host-interface flows and a QoS-arbitrated GC port.)
"""

from .allocator import ALLOCATION_MODES, BlockAllocator
from .core import WEAR_LEVELING_MODES, FtlCore, OutOfSpaceError
from .ftl import BlockDeviceFTL
from .mapping import PageMap

__all__ = [
    "PageMap",
    "BlockAllocator",
    "ALLOCATION_MODES",
    "FtlCore",
    "WEAR_LEVELING_MODES",
    "OutOfSpaceError",
    "BlockDeviceFTL",
]
