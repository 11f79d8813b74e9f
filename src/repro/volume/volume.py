"""Logical volumes: host-side FTL state driving QoS-arbitrated I/O.

:class:`LogicalVolume` is the write-path subsystem sitting between
:class:`~repro.api.session.Session` tenants and the device: it rides the
shared log-structured substrate (:class:`~repro.ftl.core.FtlCore` — the
L2P :class:`~repro.ftl.mapping.PageMap`, the
:class:`~repro.ftl.allocator.BlockAllocator` (``sequential`` mode by
default, so logically consecutive writes land on stripe-adjacent
physical runs), validity tracking and greedy garbage collection) but,
unlike :class:`~repro.ftl.ftl.BlockDeviceFTL`, it never hands the core
the raw device:

* foreground page reads/writes ride the *caller's*
  :class:`~repro.host.iface.HostInterface` flows (syscall/driver, page
  buffers, RPC, PCIe DMA, splitter admission, card command), so QoS
  policies, bandwidth accounting, request tracing and the read/write
  coalescers all apply without the workload knowing its blocks are
  remapped;
* GC relocation traffic flows through a dedicated low-priority
  splitter port (admission label ``volume-gc``), so the splitter's
  admission policy arbitrates it against every foreground tenant.

Allocation (and GC, which runs inside the allocation critical section)
is serialized by the core's one-slot lock; the physical program happens
outside the lock, so ``queue_depth`` concurrent writers still fill the
device's queue — and, with sequential allocation, fill it with
stripe-adjacent runs the program coalescer merges.  Programs targeting
the *same block* are additionally gated into allocation order (which is
ascending page order) before they are issued, so QoS arbitration across
ports — foreground tenant ports vs. the low-priority GC port — can
never program a lower page after a higher one inside a block: the NAND
in-block order rule holds across commands, not just within one
multi-page command.  Both invariants live in the shared core, so the
driver FTL and RFS facades get them too.

Write amplification is accounted per tenant: each logical write bumps
its issuer's ``user_writes``; each GC relocation bumps the *owning*
tenant's ``gc_moved`` (ownership = the registered LBA window containing
the moved page), so ``core.write_amplification(tenant)`` reports
``(user + relocated) / user`` — the classic WA definition, per tenant.
"""

from __future__ import annotations

from typing import Optional

from ..flash import PhysAddr
from ..ftl import FtlCore
from ..sim import Simulator

__all__ = ["LogicalVolume"]


class LogicalVolume:
    """FTL-backed logical block volume over one node's storage device.

    A thin shell over :class:`FtlCore`: this class says which objects
    move the bytes (foreground flows through the caller's host
    interface, GC relocation through ``gc_port``, the dedicated
    :class:`~repro.flash.splitter.SplitterPort`) and owns the
    logical-capacity policy; the core owns every loop and every
    mapping, allocation, ordering and accounting decision.
    """

    def __init__(self, sim: Simulator, device, gc_port,
                 overprovision: float = 0.25,
                 allocation: str = "sequential",
                 gc_low_watermark: int = 2,
                 name: str = "volume",
                 wear_leveling: str = "none",
                 wl_spread_threshold: int = 8):
        if not 0.0 <= overprovision < 1.0:
            raise ValueError(
                f"overprovision must be in [0, 1), got {overprovision}")
        self.overprovision = overprovision
        self.core = FtlCore(sim, device, gc_port, mode=allocation,
                            gc_low_watermark=gc_low_watermark, name=name,
                            wear_leveling=wear_leveling,
                            wl_spread_threshold=wl_spread_threshold)
        self.logical_pages = int(
            device.geometry.pages_per_node * (1.0 - overprovision))
        #: when True, :meth:`stats` adds the reliability counter block
        #: — set by the session for FaultSpec-bearing scenarios (and
        #: here when wear leveling is on) so fault-free runs keep their
        #: exact pre-reliability JSON shape.
        self.reliability_stats_enabled = wear_leveling != "none"

    # -- ownership / accounting -----------------------------------------
    def register_owner(self, start: int, size: int, tenant: str) -> None:
        """Claim the LBA window ``[start, start+size)`` for ``tenant``."""
        if start < 0 or size < 1 or start + size > self.logical_pages:
            raise ValueError(
                f"window [{start}, {start + size}) outside the volume's "
                f"{self.logical_pages} logical pages")
        self.core.register_owner(start, start + size, tenant)

    def stats(self) -> dict:
        """JSON-ready counters for ``RunResult.metrics``."""
        core = self.core
        stats = {
            "logical_pages": self.logical_pages,
            "mapped_pages": core.map.mapped_count,
            "prefilled_pages": core.prefilled_pages,
            "free_blocks": core.allocator.free_blocks,
            "allocation": core.allocation,
            "overprovision": self.overprovision,
            "user_writes": dict(core.user_writes),
            "gc_moved": dict(core.gc_moved),
            "gc_runs": core.gc_runs,
            "gc_moved_pages": core.gc_moved_pages,
            "gc_stale_moves": core.gc_stale_moves,
            "total_programs": core.total_programs,
            "write_amplification": {
                tenant: core.write_amplification(tenant)
                for tenant in core.user_writes},
            "overall_write_amplification": core.write_amplification(),
        }
        if self.reliability_stats_enabled:
            stats["reliability"] = core.reliability_stats()
        return stats

    # -- mapping ---------------------------------------------------------
    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise ValueError(
                f"LPN {lpn} out of range (volume has "
                f"{self.logical_pages} logical pages)")

    def physical_of(self, lpn: int) -> Optional[PhysAddr]:
        """Current physical location of a logical page (None=unmapped)."""
        self._check_lpn(lpn)
        return self.core.map.lookup(lpn)

    def prefill(self, start: int, count: int) -> None:
        """Map ``count`` logical pages from ``start``, instantly.

        Functional setup (zero simulated time, no device commands):
        the pages get real physical locations from the allocator —
        stripe-adjacent runs under sequential allocation — and count as
        programmed for GC purposes, but not as user writes, so
        write-amplification measures only the workload.
        """
        if count < 1:
            return
        self._check_lpn(start)
        self._check_lpn(start + count - 1)
        self.core.prefill(start, count)

    def trim(self, lpn: int) -> None:
        """Invalidate a logical page (TRIM); space is reclaimed by GC."""
        self._check_lpn(lpn)
        self.core.trim(lpn)

    # -- foreground flows (DES generators) -------------------------------
    # Both return the core's generator instead of wrapping it in one of
    # their own: every event of a request resumes each frame it passes
    # through, and these are on every volume request's path.
    def read_flow(self, lpn: int, iface, software_path: bool, request):
        """Read one logical page through ``iface``'s host read flow
        (:meth:`FtlCore.read`; a DES generator -> bytes)."""
        self._check_lpn(lpn)
        return self.core.read(lpn, iface._read_flow, software_path,
                              request)

    def write_flow(self, iface, lpn: int, data: bytes,
                   software_path: bool, request,
                   tenant: Optional[str] = None):
        """Write one logical page through ``iface``'s host write flow
        (:meth:`FtlCore.write`; a DES generator), charged to ``tenant``
        (default: the interface's tenant)."""
        self._check_lpn(lpn)
        return self.core.write(lpn, data, iface._write_flow,
                               software_path, request,
                               owner=tenant or iface.tenant)
