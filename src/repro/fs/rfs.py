"""RFS-style log-structured flash file system (Section 4).

"Unlike conventional FTL designs where the flash characteristics are
hidden from the file system, RFS performs some functionality of an FTL,
including logical-to-physical address mapping and garbage collection.
This achieves better garbage collection efficiency at much lower memory
requirement."

Crucially for BlueDBM, the file system *knows where files physically
live*: "user-level applications can query the file system for the
physical locations of files on the flash ... Applications can then
provide in-storage processors with a stream of physical addresses" —
reproduced by :meth:`RFS.physical_extents`, which feeds the Flash
Server's Address Translation Unit.
"""

from __future__ import annotations

from typing import Dict, List

from ..flash import PhysAddr
from ..flash.device import StorageDevice
from ..ftl.core import FtlCore
from ..sim import Simulator

__all__ = ["RFS", "Inode"]


class Inode:
    """File metadata: name, byte size, and the logical pages backing it."""

    __slots__ = ("name", "size", "lpns")

    def __init__(self, name: str):
        self.name = name
        self.size = 0
        self.lpns: List[int] = []

    @property
    def num_pages(self) -> int:
        return len(self.lpns)


class RFS:
    """A flat-namespace log-structured file system on raw flash.

    File pages are logical pages of an :class:`FtlCore` that does its
    foreground and GC I/O on the raw device; counters live on
    :attr:`core` (``core.write_amplification()``, ``core.stats()``,
    ...).
    """

    def __init__(self, sim: Simulator, device: StorageDevice):
        self.device = device
        self.core = FtlCore(sim, device, device, name="rfs")
        self.page_size = device.geometry.page_size
        self._files: Dict[str, Inode] = {}
        self._next_lpn = 0

    # -- namespace -----------------------------------------------------------
    def create(self, name: str) -> Inode:
        """Create an empty file; error if it exists."""
        if name in self._files:
            raise FileExistsError(f"file {name!r} already exists")
        inode = Inode(name)
        self._files[name] = inode
        return inode

    def stat(self, name: str) -> Inode:
        if name not in self._files:
            raise FileNotFoundError(f"no such file: {name!r}")
        return self._files[name]

    # -- data path (DES generators) -------------------------------------------
    def write_file(self, name: str, data: bytes):
        """Write ``data`` as the file's full contents (truncate + write)."""
        inode = self._files.get(name) or self.create(name)
        # Invalidate the old version's pages (log-structured overwrite).
        for lpn in inode.lpns:
            self.core.map.unmap(lpn)
        inode.lpns = []
        inode.size = len(data)
        for offset in range(0, max(len(data), 1), self.page_size):
            chunk = data[offset:offset + self.page_size]
            lpn = self._next_lpn
            self._next_lpn += 1
            yield from self.core.write(lpn, chunk, self.device.write_page)
            inode.lpns.append(lpn)

    # -- the BlueDBM-specific query (Section 4, step 1) -----------------------
    def physical_extents(self, name: str) -> List[PhysAddr]:
        """Current physical page addresses of a file, in file order.

        This is what applications hand to in-store processors; it stays
        correct across GC because it is re-queried per job.
        """
        inode = self.stat(name)
        extents = []
        for lpn in inode.lpns:
            addr = self.core.map.lookup(lpn)
            if addr is None:
                raise RuntimeError(
                    f"file {name!r} page lpn={lpn} has no mapping "
                    f"(filesystem corruption)")
            extents.append(addr)
        return extents
