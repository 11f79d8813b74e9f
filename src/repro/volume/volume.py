"""Logical volumes: host-side FTL state driving QoS-arbitrated I/O.

:class:`LogicalVolume` is the write-path subsystem sitting between
:class:`~repro.api.session.Session` tenants and the device: it rides the
shared log-structured substrate (:class:`~repro.ftl.core.FtlCore` — the
L2P :class:`~repro.ftl.mapping.PageMap`, the
:class:`~repro.ftl.allocator.BlockAllocator` (``sequential`` mode by
default, so logically consecutive writes land on stripe-adjacent
physical runs), validity tracking and greedy garbage collection) but,
unlike :class:`~repro.ftl.ftl.BlockDeviceFTL`, it performs **no device
I/O of its own**:

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
is serialized by a one-slot lock; the physical program itself happens
outside the lock, so ``queue_depth`` concurrent writers still fill the
device's queue — and, with sequential allocation, fill it with
stripe-adjacent runs the program coalescer merges.  Programs targeting
the *same block* are additionally gated into allocation order (which is
ascending page order) before they are issued, so QoS arbitration across
ports — foreground tenant ports vs. the low-priority GC port — can
never program a lower page after a higher one inside a block: the NAND
in-block order rule holds across commands, not just within one
multi-page command.  Both invariants live in the shared core, so the
driver FTL and RFS facades inherit them too.

Write amplification is accounted per tenant: each logical write bumps
its issuer's ``user_writes``; each GC relocation bumps the *owning*
tenant's ``gc_moved`` (ownership = the registered LBA window containing
the moved page), so ``write_amplification(tenant)`` reports
``(user + relocated) / user`` — the classic WA definition, per tenant.
"""

from __future__ import annotations

from typing import Optional

from ..flash import (
    BadBlockProgramError,
    PhysAddr,
    ProgramFailedError,
    UncorrectablePageError,
)
from ..ftl import FtlCore
from ..sim import Resource, Simulator

__all__ = ["LogicalVolume"]


class LogicalVolume:
    """FTL-backed logical block volume over one node's storage device.

    A thin shell over :class:`FtlCore`: this class owns the QoS-riding
    I/O (foreground flows through the caller's host interface, GC
    relocation through ``gc_port``, the dedicated :class:`~repro.flash.
    splitter.SplitterPort`) and the logical-capacity policy; the core
    owns every mapping, allocation, ordering and accounting decision.
    """

    #: Verify-after-write retry budget: hash-keyed injected failures
    #: roll fresh odds on every rewrite (different page, block, cycle),
    #: so this bound is unreachable at any sane failure rate — it only
    #: guards against a pathological all-ones fault plan.
    MAX_WRITE_ATTEMPTS = 8

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
        self.sim = sim
        self.device = device
        self.geometry = device.geometry
        self.gc_port = gc_port
        self.name = name
        self.overprovision = overprovision
        self.core = FtlCore(sim, device, io=self, mode=allocation,
                            gc_low_watermark=gc_low_watermark, name=name,
                            wear_leveling=wear_leveling,
                            wl_spread_threshold=wl_spread_threshold)
        self.logical_pages = int(
            self.geometry.pages_per_node * (1.0 - overprovision))
        self.page_size = self.geometry.page_size
        self._lock = Resource(sim, capacity=1, name=f"{name}-alloc")
        #: when True, :meth:`stats` adds the reliability counter block
        #: — set by the session for FaultSpec-bearing scenarios (and
        #: here when wear leveling is on) so fault-free runs keep their
        #: exact pre-reliability JSON shape.
        self.reliability_stats_enabled = wear_leveling != "none"

    # -- shared-core state, re-exported ---------------------------------
    @property
    def map(self):
        return self.core.map

    @property
    def allocator(self):
        return self.core.allocator

    @property
    def allocation(self) -> str:
        return self.core.allocation

    @property
    def gc_low_watermark(self) -> int:
        return self.core.gc_low_watermark

    @property
    def user_writes(self) -> dict:
        return self.core.user_writes

    @property
    def gc_moved(self) -> dict:
        return self.core.gc_moved

    @property
    def total_programs(self) -> int:
        return self.core.total_programs

    @property
    def gc_runs(self) -> int:
        return self.core.gc_runs

    @property
    def gc_moved_pages(self) -> int:
        return self.core.gc_moved_pages

    @property
    def gc_stale_moves(self) -> int:
        return self.core.gc_stale_moves

    @property
    def prefilled_pages(self) -> int:
        return self.core.prefilled_pages

    @property
    def _full_blocks(self):
        return self.core._full_blocks

    @property
    def _programmed(self):
        return self.core._programmed

    @property
    def _program_next(self):
        return self.core._program_next

    def _note_program(self, addr: PhysAddr) -> None:
        self.core._note_program(addr)

    def _await_program_turn(self, addr: PhysAddr):
        yield from self.core.await_program_turn(addr)

    def _program_done(self, addr: PhysAddr) -> None:
        self.core.program_done(addr)

    # -- ownership / accounting -----------------------------------------
    def register_owner(self, start: int, size: int, tenant: str) -> None:
        """Claim the LBA window ``[start, start+size)`` for ``tenant``."""
        if start < 0 or size < 1 or start + size > self.logical_pages:
            raise ValueError(
                f"window [{start}, {start + size}) outside the volume's "
                f"{self.logical_pages} logical pages")
        self.core.register_owner(start, start + size, tenant)

    def owner_of(self, lpn: int) -> str:
        """The tenant owning ``lpn``'s window (the volume name if none)."""
        return self.core.owner_of(lpn)

    def write_amplification(self, tenant: Optional[str] = None) -> float:
        """Programs per user write: 1.0 = no GC traffic charged.

        With a ``tenant``, the per-tenant view — that tenant's user
        writes plus the relocations its pages caused; without, the
        volume-wide aggregate.
        """
        return self.core.write_amplification(tenant)

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

    # -- foreground flows (DES generators) -------------------------------
    def read_flow(self, lpn: int, iface, software_path: bool,
                  request, interrupt: bool = True) -> bytes:
        """Read one logical page through ``iface``'s host read flow.

        Unmapped pages return the erased pattern without a device
        command (the FTL answers from the map, like a real driver).
        ``interrupt`` threads through to the host read flow for the
        coalesced-interrupt submission path.
        """
        self._check_lpn(lpn)
        addr = self.core.map.lookup(lpn)
        if addr is None:
            yield self.sim.timeout(0)
            return b"\xff" * self.page_size
        # Pin the block against GC's erase for the read's lifetime: the
        # mapping may move meanwhile (we then return the version that
        # was current at resolve time — ordinary out-of-place-FTL
        # semantics), but the physical page must not be erased under us.
        self.core.begin_read(addr)
        try:
            result = yield from iface._read_flow(addr, software_path,
                                                 request,
                                                 interrupt=interrupt)
        except UncorrectablePageError:
            # The only copy is gone (read-disturb / wear-out injection;
            # the card already retired the block).  Record the loss,
            # drop the mapping — unless a concurrent overwrite already
            # moved it, in which case nothing was lost — and hand back
            # the erased pattern so the workload keeps running; the
            # loss is surfaced through the reliability counters.
            if self.core.map.lookup(lpn) == addr:
                self.core.note_read_loss(lpn)
            return b"\xff" * self.page_size
        finally:
            self.core.end_read(addr)
        return result.data

    def write_flow(self, iface, lpn: int, data: bytes,
                   software_path: bool, request,
                   tenant: Optional[str] = None):
        """Write one logical page out-of-place through ``iface``.

        Allocation (and any GC it triggers) happens under the volume
        lock; the physical program runs outside it, so concurrent
        writers keep the device queue full with stripe-adjacent runs.
        The remap — old mapping invalidated, LPN pointed at the fresh
        page — happens only when the program *completes*: reads
        resolving meanwhile still see the previous version (never an
        unprogrammed page), and concurrent writes to one LPN settle
        last-completer-wins, exactly like unordered writes to one LBA
        on a real device.  Accounting follows completion too: a write
        whose program fails charges no user write, and its page is
        retired as programmed-and-invalid so the block still fills and
        stays GC-eligible.
        """
        self._check_lpn(lpn)
        owner = tenant or iface.tenant
        for _attempt in range(self.MAX_WRITE_ATTEMPTS):
            yield self._lock.request()
            try:
                addr = yield from self.core.allocate()
            finally:
                self._lock.release()
            yield from self.core.await_program_turn(addr)
            try:
                yield from iface._write_flow(addr, data, software_path,
                                             request)
            except (ProgramFailedError, BadBlockProgramError):
                # Verify-after-write caught an injected program
                # failure — or the card rejected the program because a
                # read marked the block grown-bad after the page was
                # allocated.  Either way the burned page retires, its
                # block goes suspect (retired at its next erase), and
                # the write recovers by rewriting to a fresh page — the
                # caller never sees the fault, so an acknowledged write
                # is never lost to a program failure.
                self.core.note_program_failure(addr)
                continue
            except BaseException:
                # The page is burned whether or not the program landed:
                # retire it (never mapped, so invalid) instead of
                # leaking it — the block keeps filling toward GC
                # eligibility.
                self.core.retire_page(addr)
                raise
            self.core.commit_write(lpn, addr, owner)
            return
        raise ProgramFailedError(
            f"write to LPN {lpn} failed {self.MAX_WRITE_ATTEMPTS} "
            f"programs in a row")

    def trim(self, lpn: int) -> None:
        """Invalidate a logical page (TRIM); space is reclaimed by GC."""
        self._check_lpn(lpn)
        self.core.trim(lpn)

    # -- garbage collection ----------------------------------------------
    def force_gc(self):
        """Run one GC pass explicitly (DES generator) -> bool reclaimed."""
        yield self._lock.request()
        try:
            reclaimed = yield from self.core.collect_once()
        finally:
            self._lock.release()
        return reclaimed

    # -- chip evacuation ---------------------------------------------------
    def evacuate_chip(self, card: int, bus: int, chip: int):
        """Evacuate a dying chip under QoS (DES generator).

        The chip leaves allocation first (new writes land elsewhere),
        then its blocks are evacuated one at a time — each block's
        relocation runs under the allocation lock like a GC pass, and
        the lock is released between blocks so foreground writers
        interleave with the evacuation instead of stalling behind it.
        Relocation I/O rides the volume's low-priority GC port, so the
        evacuation competes under the configured QoS policy.
        """
        yield self._lock.request()
        try:
            self.core.allocator.retire_chip(card, bus, chip)
        finally:
            self._lock.release()
        for block in range(self.geometry.blocks_per_chip):
            yield self._lock.request()
            try:
                yield from self.core.evacuate_block(card, bus, chip,
                                                    block)
            finally:
                self._lock.release()
        self.core.chips_evacuated += 1

    # -- GC relocation backend (FtlCore ``io``) ---------------------------
    def gc_read(self, addr: PhysAddr):
        result = yield from self.gc_port.read_page(addr)
        return result

    def gc_write(self, addr: PhysAddr, data: bytes):
        yield from self.gc_port.write_page(addr, data)

    def gc_erase(self, addr: PhysAddr):
        yield from self.gc_port.erase_block(addr)
