"""Block-device-driver FTL: the backwards-compatible path (Section 4).

"For compatibility with existing software, BlueDBM also offers a
full-fledged FTL implemented in the device driver ... This allows us to
use well-known Linux file systems (e.g., ext2/3/4) as well as database
systems (directly running on top of a block device)."

The device presents ``logical_pages`` uniform pages; overwrites are
remapped out-of-place and cleaned by the shared log-structured core.
Logical capacity is the physical capacity minus over-provisioning — the
spare area GC needs to stay efficient.
"""

from __future__ import annotations

from ..flash.device import StorageDevice
from ..sim import Simulator
from .core import FtlCore

__all__ = ["BlockDeviceFTL"]


class BlockDeviceFTL:
    """A flat logical block device over raw flash.

    A thin shell over :class:`FtlCore` that hands the core its
    :class:`StorageDevice` for foreground and GC I/O alike.  Counters
    live on :attr:`core` (``core.write_amplification()``,
    ``core.stats()``, ...).
    """

    def __init__(self, sim: Simulator, device: StorageDevice,
                 overprovision: float = 0.25, gc_low_watermark: int = 2):
        if not 0.0 <= overprovision < 1.0:
            raise ValueError(
                f"overprovision must be in [0, 1), got {overprovision}")
        self.device = device
        self.core = FtlCore(sim, device, device,
                            gc_low_watermark=gc_low_watermark, name="ftl")
        physical_pages = device.geometry.pages_per_node
        self.logical_pages = int(physical_pages * (1.0 - overprovision))
        self.page_size = device.geometry.page_size

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise ValueError(
                f"LPN {lpn} out of range (device has "
                f"{self.logical_pages} logical pages)")

    # -- block device operations (DES generators) ---------------------------
    def write(self, lpn: int, data: bytes):
        """Write one logical page (out-of-place, GC as needed)."""
        self._check_lpn(lpn)
        yield from self.core.write(lpn, data, self.device.write_page)
