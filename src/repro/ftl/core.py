"""The one log-structured FTL substrate every management facade rides.

The paper's two host-side flash-management designs (Section 4) — the
driver-level FTL ("a full-fledged FTL implemented in the device driver,
similar to Fusion IO's driver") and the RFS-style file system ("RFS
performs some functionality of an FTL, including logical-to-physical
address mapping and garbage collection") — share one log-structured
substrate.  :class:`FtlCore` *is* that substrate: it owns the
:class:`~repro.ftl.mapping.PageMap`, the
:class:`~repro.ftl.allocator.BlockAllocator` (``striped`` and
``sequential`` modes), greedy garbage collection with a deterministic
victim tiebreak, and every invariant the PR-5 review pass hardened:

* **mid-relocation re-checks** — the victim page's reverse mapping is
  re-read after the relocation read *and* after the relocation write,
  so a foreground overwrite or TRIM completing while the copy was in
  flight keeps the newer state (the abandoned copy is retired
  programmed-and-invalid and charged to nobody);
* **completion-time write accounting** — a write is charged only when
  its program completes; a failed program charges nothing and retires
  its page programmed-and-invalid, so no free space leaks;
* **the per-block program-order gate** — same-block programs are gated
  into allocation order (ascending pages) before they are issued, so
  concurrent writers racing through independently-arbitrated paths
  never violate the NAND in-block order rule;
* **read pinning** — foreground reads pin their block against GC's
  erase for the read's lifetime, so relocation can move the mapping
  but the physical page is never erased under an in-flight read.

Every loop that moves bytes lives here too, written once against one
port protocol — three DES generator methods, the interface
:class:`~repro.flash.device.StorageDevice` and
:class:`~repro.flash.splitter.SplitterPort` both expose:

``read_page(addr) -> bytes`` / ``write_page(addr, data)`` /
``erase_block(addr)``

* :meth:`FtlCore.read` — the foreground read: map lookup, the erased
  pattern for unmapped pages, the read pin, and loss handling for an
  uncorrectable read;
* :meth:`FtlCore.write` — the foreground write: allocation under the
  core's one-slot lock, the program-order gate, and the
  verify-after-write retry loop GC relocation shares;
* GC, static wear leveling and chip evacuation, whose relocation I/O
  goes to the ``gc_port`` handed in at construction.

The facades only say *which* object moves the bytes.
:class:`~repro.ftl.ftl.BlockDeviceFTL` and :class:`~repro.fs.rfs.RFS`
pass their :class:`~repro.flash.device.StorageDevice` for foreground
and GC I/O alike (the device's routed single-page ops serve only these
two; the splitter commands the card directly);
:class:`~repro.volume.LogicalVolume` passes the caller's host-interface
flows for foreground I/O and its dedicated low-priority ``volume-gc``
splitter port as ``gc_port``, so relocation is QoS-arbitrated.

Everything the core did is counted once, in one ledger: :attr:`FtlCore.ops`
maps ``(op, cause, owner)`` to a count.  The ops are ``program`` (a
page programmed), ``fail`` (a failed program that was rewritten),
``lose`` (a page of acknowledged data gone), ``retire`` (a block
retired to the grown-bad table), ``erase`` (a wear-leveling migration's
erase) and ``retire_chip`` (a chip evacuated); the causes are ``user``,
``gc``, ``wl`` (static wear leveling), ``evacuate`` and ``prefill``.  A
page program is charged to its owner: the writing tenant for a user
write, the tenant whose LBA window holds the page for a relocation
(the core's ``name`` when no window matches), and nobody (``None``)
for a relocated copy a foreground write overtook.  Every number the
core reports (:meth:`FtlCore.stats`, :meth:`FtlCore.reliability_stats`,
:meth:`FtlCore.write_amplification`) is a view over the ledger, so
``total_programs == user + relocated`` holds by construction.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from ..flash import (
    BadBlockProgramError,
    EraseError,
    PhysAddr,
    ProgramFailedError,
    UncorrectablePageError,
)
from ..sim import Event, Resource, Simulator
from .allocator import ALLOCATION_MODES, BlockAllocator
from .mapping import PageMap

__all__ = ["FtlCore", "OutOfSpaceError", "WEAR_LEVELING_MODES"]

#: ``none`` = least-erased-first allocation only (the min-heaps already
#: prefer cold blocks); ``static`` additionally migrates the coldest
#: *full* block when the erase-count spread crosses a threshold, so
#: cold data stops camping on cycles the device can never reclaim.
WEAR_LEVELING_MODES = ("none", "static")

_BlockKey = Tuple[int, int, int, int, int]

#: The causes whose programs relocate valid pages.
RELOCATIONS = ("gc", "wl", "evacuate")


class OutOfSpaceError(Exception):
    """No free pages remain even after garbage collection."""


class FtlCore:
    """Shared map/allocator/GC state machine over one node's flash.

    ``gc_port`` carries GC relocation I/O (``read_page``/``write_page``/
    ``erase_block`` DES generators).  Allocation, and the GC it
    triggers, runs under the core's one-slot lock, so any number of
    concurrent writers may call :meth:`write`.
    """

    #: Verify-after-write retry budget: hash-keyed injected failures
    #: roll fresh odds on every rewrite (different page, block, cycle),
    #: so this bound is unreachable at any sane failure rate — it only
    #: guards against a pathological all-ones fault plan.
    MAX_PROGRAM_ATTEMPTS = 8

    def __init__(self, sim: Simulator, device, gc_port,
                 mode: str = "striped", gc_low_watermark: int = 2,
                 name: str = "ftl", wear_leveling: str = "none",
                 wl_spread_threshold: int = 8):
        if mode not in ALLOCATION_MODES:
            raise ValueError(
                f"unknown allocation mode {mode!r}; expected one "
                f"of {ALLOCATION_MODES}")
        if gc_low_watermark < 1:
            raise ValueError("gc_low_watermark must be >= 1")
        if wear_leveling not in WEAR_LEVELING_MODES:
            raise ValueError(
                f"unknown wear-leveling mode {wear_leveling!r}; "
                f"expected one of {WEAR_LEVELING_MODES}")
        if wl_spread_threshold < 1:
            raise ValueError("wl_spread_threshold must be >= 1")
        self.sim = sim
        self.device = device
        self.gc_port = gc_port
        self.geometry = device.geometry
        self._erased = b"\xff" * self.geometry.page_size
        self.name = name
        self.allocation = mode
        self.gc_low_watermark = gc_low_watermark
        self.wear_leveling = wear_leveling
        self.wl_spread_threshold = wl_spread_threshold
        self.map = PageMap(self.geometry, node=device.node)
        self.allocator = BlockAllocator(self.geometry, device.badblocks,
                                        device.wear, node=device.node,
                                        mode=mode)
        self._lock = Resource(sim, capacity=1, name=f"{name}-alloc")
        #: block -> next page expected to program; writers (foreground
        #: and GC alike) gate on it so same-block programs reach the
        #: chip in allocation order (the NAND in-block order rule).
        #: The gate serializes each block, so the cursor is also the
        #: block's count of programmed (or burned) pages.
        self._program_next: Dict[_BlockKey, int] = {}
        self._program_gates: Dict[_BlockKey, List[Event]] = {}
        #: block -> in-flight foreground reads; GC must not erase a
        #: block out from under one (it would read back erased bytes).
        self._reading: Dict[_BlockKey, int] = {}
        self._read_gates: Dict[_BlockKey, List[Event]] = {}
        #: (start, end, tenant) LBA ownership windows, in registration
        #: order; GC relocation is attributed to the owning tenant.
        self._owners: List[Tuple[int, int, str]] = []
        #: (op, cause, owner) -> count: the one ledger (module docstring).
        self.ops: Counter = Counter()
        #: collected victim block keys in collection order — GC victim
        #: order is reproducible by construction (deterministic
        #: tiebreak), and this is the pin equivalence tests compare.
        self.gc_victims: List[_BlockKey] = []
        #: blocks that ate a program failure: they keep serving reads
        #: and filling normally, but are retired (grown-bad) instead of
        #: released at their next erase — the firmware-style
        #: retire-at-erase lifecycle.
        self._suspect: Set[_BlockKey] = set()
        self.first_loss_ns: Optional[int] = None
        #: user writes completed when the first page was lost — the
        #: lifetime experiment's TBW-to-first-loss numerator.
        self.first_loss_user_writes: Optional[int] = None
        self._wl_last_total_erases = -1

    # -- ownership / accounting -----------------------------------------
    def register_owner(self, start: int, end: int, tenant: str) -> None:
        """Attribute the LBA window ``[start, end)`` to ``tenant``."""
        self._owners.append((start, end, tenant))
        # Seeded so registered tenants lead the per-owner views.
        self.ops.setdefault(("program", "user", tenant), 0)
        self.ops.setdefault(("program", "gc", tenant), 0)

    def owner_of(self, lpn: int) -> str:
        """The tenant owning ``lpn``'s window (the core name if none)."""
        for start, end, tenant in self._owners:
            if start <= lpn < end:
                return tenant
        return self.name

    # -- ledger views ----------------------------------------------------
    def _count(self, op: str, causes) -> int:
        """``op``'s total over ``causes``, every owner included."""
        total = 0
        for (kind, cause, _), n in self.ops.items():
            if kind == op and cause in causes:
                total += n
        return total

    def _charged(self, causes) -> Dict[str, int]:
        """Pages programmed for ``causes`` per owner, in the order the
        owners were first charged; stale copies (owner None) left out."""
        owners: Dict[str, int] = {}
        for (op, cause, owner), n in self.ops.items():
            if op == "program" and cause in causes and owner is not None:
                owners[owner] = owners.get(owner, 0) + n
        return owners

    def write_amplification(self, tenant: Optional[str] = None) -> float:
        """Programs per user write: 1.0 = no GC traffic charged.

        With a ``tenant``, the per-tenant view — that tenant's user
        writes plus the relocations its pages caused; without, the
        volume-wide aggregate.  Stale (abandoned) copies are charged to
        nobody: they are GC overhead, not any tenant's data movement.
        """
        user, moved = self._charged(("user",)), self._charged(RELOCATIONS)
        if tenant is None:
            user, moved = sum(user.values()), sum(moved.values())
        else:
            user, moved = user.get(tenant, 0), moved.get(tenant, 0)
        return (user + moved) / user if user else 1.0

    def stats(self) -> Dict[str, object]:
        """The accounting block of a volume's stats, in metric order;
        the reliability block joins it when faults are injected."""
        user = self._charged(("user",))
        moved = self._charged(RELOCATIONS)
        moved_pages = sum(moved.values())
        relocated = self._count("program", RELOCATIONS)
        stats = {
            "user_writes": user,
            "gc_moved": moved,
            "gc_runs": len(self.gc_victims),
            "gc_moved_pages": moved_pages,
            "gc_stale_moves": relocated - moved_pages,
            "total_programs": sum(user.values()) + relocated,
            "write_amplification": {
                tenant: self.write_amplification(tenant) for tenant in user},
            "overall_write_amplification": self.write_amplification(),
        }
        if self.device.faults is not None:
            stats["reliability"] = self.reliability_stats()
        return stats

    # -- mapping ---------------------------------------------------------
    @staticmethod
    def _key(addr: PhysAddr) -> _BlockKey:
        return addr[:5]

    @staticmethod
    def _addr_of(key: _BlockKey) -> PhysAddr:
        node, card, bus, chip, block = key
        return PhysAddr(node=node, card=card, bus=bus, chip=chip,
                        block=block, page=0)

    # -- program bookkeeping ---------------------------------------------
    def await_program_turn(self, addr: PhysAddr):
        """Hold a program until every earlier page of its block has
        programmed (DES generator).

        The allocator hands out a block's pages in ascending order, but
        the programs themselves may race through independently-
        arbitrated paths (tenant QoS ports vs. the low-priority GC
        port, or concurrent file-system writers).  This gate restores
        allocation order per block before the command is issued, so the
        NAND in-block order rule survives arbitration.  It costs no
        simulated event when programs already arrive in order.
        """
        key = self._key(addr)
        while self._program_next.get(key, 0) < addr.page:
            gate = Event(self.sim)
            self._program_gates.setdefault(key, []).append(gate)
            yield gate

    def program_done(self, addr: PhysAddr) -> None:
        """Advance the block's program cursor and wake gated writers.

        A block becomes GC-eligible once its cursor passes the last
        page: only then has *every* allocated page actually programmed,
        so GC never relocates (or erases under) a page whose program is
        still in flight.
        """
        key = self._key(addr)
        if addr.page >= self._program_next.get(key, 0):
            self._program_next[key] = addr.page + 1
            if addr.page + 1 >= self.geometry.pages_per_block:
                self.map.seal(key)
        for gate in self._program_gates.pop(key, ()):
            if not gate.triggered:
                gate.succeed()

    # -- read pinning ----------------------------------------------------
    def begin_read(self, addr: PhysAddr) -> None:
        """Pin ``addr``'s block against GC's erase (pure bookkeeping).

        The mapping may still move meanwhile (the caller then returns
        the version that was current at resolve time — ordinary
        out-of-place-FTL semantics), but the physical page must not be
        erased under the in-flight read.
        """
        key = self._key(addr)
        self._reading[key] = self._reading.get(key, 0) + 1

    def end_read(self, addr: PhysAddr) -> None:
        """Release a read pin; wake GC if it is waiting to erase."""
        key = self._key(addr)
        remaining = self._reading[key] - 1
        if remaining:
            self._reading[key] = remaining
        else:
            del self._reading[key]
            for gate in self._read_gates.pop(key, ()):
                if not gate.triggered:
                    gate.succeed()

    # -- foreground I/O (DES generators) ---------------------------------
    def read(self, lpn: int, read_page, *args):
        """Read one logical page through ``read_page(addr, *args)``
        -> bytes.

        Unmapped pages return the erased pattern without a device
        command (the FTL answers from the map, like a real driver).
        The resolved block is pinned against GC's erase for the read's
        lifetime: the mapping may move meanwhile (the read then returns
        the version that was current at resolve time — ordinary
        out-of-place-FTL semantics), but the physical page is never
        erased under it.
        """
        addr = self.map.lookup(lpn)
        if addr is None:
            yield self.sim.timeout(0)
            return self._erased
        self.begin_read(addr)
        try:
            data = yield from read_page(addr, *args)
        except UncorrectablePageError:
            # The only copy is gone (wear-out injection;
            # the card already retired the block).  Record the loss,
            # drop the mapping — unless a concurrent overwrite already
            # moved it, in which case nothing was lost — and hand back
            # the erased pattern so the workload keeps running; the
            # loss is surfaced through the reliability counters.
            if self.map.lookup(lpn) == addr:
                self.note_read_loss(lpn)
            return self._erased
        finally:
            self.end_read(addr)
        return data

    def write(self, lpn: int, data: bytes, write_page, *args,
              owner: Optional[str] = None):
        """Write one logical page out-of-place through
        ``write_page(addr, data, *args)``.

        Allocation (and any GC it triggers) happens under the core's
        lock; the physical program runs outside it, so concurrent
        writers keep the device queue full with stripe-adjacent runs.
        The remap — old mapping invalidated, LPN pointed at the fresh
        page — happens only when the program *completes*: reads
        resolving meanwhile still see the previous version (never an
        unprogrammed page), and concurrent writes to one LPN settle
        last-completer-wins, exactly like unordered writes to one LBA
        on a real device.  The user write is charged to ``owner`` (the
        core's name by default) at completion too.
        """
        addr = yield from self._program(lpn, data, write_page, args, "user")
        self.map.map_page(lpn, addr)
        self.ops["program", "user", owner or self.name] += 1

    def _program(self, lpn: int, data: bytes, write_page, args, cause: str):
        """Program ``data`` on a fresh page, recovering from program
        failures (DES generator) -> the programmed page.

        The one program loop, shared by foreground writes and GC
        relocation.  A verify-after-write failure — or the card
        rejecting the program because a read marked the block
        grown-bad after the page was allocated — retires the burned
        page, marks its block suspect (retired at its next erase) and
        retries on a fresh page, so the caller never sees the fault.
        Any other error retires the page (never mapped, so invalid —
        the block keeps filling toward GC eligibility) and propagates.

        Foreground (``user``) programs allocate under the lock
        (collecting first if space is low); relocation programs already
        run inside the lock and take the next free page directly.  The
        caller charges the program once it knows the owner.
        """
        for _attempt in range(self.MAX_PROGRAM_ATTEMPTS):
            if cause != "user":
                addr = self.allocator.next_page()
                if addr is None:
                    raise OutOfSpaceError("GC found no destination page")
            else:
                addr = yield from self.allocate()
            yield from self.await_program_turn(addr)
            try:
                yield from write_page(addr, data, *args)
            except (ProgramFailedError, BadBlockProgramError):
                self.note_program_failure(addr, cause)
                continue
            except BaseException:
                self.retire_page(addr)
                raise
            self.program_done(addr)
            return addr
        raise ProgramFailedError(
            f"programming LPN {lpn} failed {self.MAX_PROGRAM_ATTEMPTS} "
            f"times in a row")

    # -- allocation / write completion -----------------------------------
    def allocate(self):
        """Take the allocation lock, garbage-collect as needed, then
        hand out the next physical page to program (DES generator).

        Raises :class:`OutOfSpaceError` when even GC cannot free a
        page.
        """
        yield self._lock.request()
        try:
            yield from self.ensure_space()
            addr = self.allocator.next_page()
        finally:
            self._lock.release()
        if addr is None:
            raise OutOfSpaceError("no free pages after GC")
        return addr

    def retire_page(self, addr: PhysAddr) -> None:
        """Retire a page whose program failed (or was abandoned).

        The page is burned whether or not the program landed: count it
        programmed-and-invalid (never mapped) instead of leaking it, so
        the block keeps filling toward GC eligibility and no user write
        is charged.
        """
        self.program_done(addr)

    def note_program_failure(self, addr: PhysAddr, cause: str) -> None:
        """Record an injected program failure the write path recovered.

        The burned page retires programmed-and-invalid and its block
        becomes *suspect*: it keeps serving reads (its acknowledged
        sibling pages are fine) and keeps filling, but is retired to
        the grown-bad table instead of released at its next erase.
        """
        self.retire_page(addr)
        self._suspect.add(self._key(addr))
        self.ops["fail", cause, None] += 1

    def _record_loss(self, cause: str) -> None:
        """One page of acknowledged data is unrecoverable."""
        self.ops["lose", cause, None] += 1
        if self.first_loss_ns is None:
            self.first_loss_ns = self.sim.now
            self.first_loss_user_writes = self._count("program", ("user",))

    def note_read_loss(self, lpn: int) -> None:
        """A foreground read came back uncorrectable: the mapping is
        dropped (the LPN reads as erased from now on) and the loss is
        recorded.  The card already retired the block."""
        self.map.unmap(lpn)
        self._record_loss("user")

    def reliability_stats(self) -> Dict[str, object]:
        """The injector-independent recovery/retirement counters;
        ``gc_lost_pages`` are the losses relocation found."""
        every = ("user",) + RELOCATIONS
        return {
            "recovered_writes": self._count("fail", every),
            "bad_blocks_retired": self._count("retire", RELOCATIONS),
            "gc_lost_pages": self._count("lose", RELOCATIONS),
            "lost_pages": self._count("lose", every),
            "first_loss_ns": self.first_loss_ns,
            "first_loss_user_writes": self.first_loss_user_writes,
            "wl_migrations": self.ops["erase", "wl", None],
            "evacuated_pages": sum(self._charged(("evacuate",)).values()),
            "chips_evacuated": self.ops["retire_chip", "evacuate", None],
            "wear_spread": self.device.wear.spread(),
            "grown_bad_blocks": self.device.badblocks.grown_bad_count,
        }

    def prefill(self, start: int, count: int) -> None:
        """Map ``count`` logical pages from ``start``, instantly.

        Functional setup (zero simulated time, no device commands):
        the pages get real physical locations from the allocator —
        stripe-adjacent runs under sequential allocation — and count as
        programmed for GC purposes, but not as user writes, so
        write-amplification measures only the workload.

        Each whole stripe group is claimed, mapped and sealed in one
        step (:meth:`BlockAllocator.take_group`,
        :meth:`PageMap.map_group`); the pages of a partly handed-out
        group go through the run-time :meth:`PageMap.map_page` and
        :meth:`program_done`, page by page.
        """
        pages_per_block = self.geometry.pages_per_block
        lpn, end = start, start + count
        while lpn < end:
            blocks = self.allocator.take_group(end - lpn)
            if blocks is not None:
                self.map.map_group(lpn, blocks)
                for key in blocks:
                    self._program_next[key] = pages_per_block
                mapped = len(blocks) * pages_per_block
            else:
                addr = self.allocator.next_page()
                if addr is None:
                    raise OutOfSpaceError(
                        f"prefill exhausted the device at LPN {lpn}")
                self.map.map_page(lpn, addr)
                self.program_done(addr)
                mapped = 1
            lpn += mapped
            self.ops["program", "prefill", None] += mapped

    # -- garbage collection ----------------------------------------------
    def ensure_space(self):
        """Collect until the free-block floor holds (DES generator; the
        allocation lock must already be held)."""
        while self.allocator.free_blocks < self.gc_low_watermark:
            freed = yield from self.collect_once("gc")
            if not freed:
                break
        if self.wear_leveling == "static":
            yield from self._maybe_level_wear()

    def _maybe_level_wear(self):
        """Static wear leveling: migrate the coldest full block when the
        erase-count spread crosses the threshold (DES generator).

        Least-erased-first allocation levels the *free* pool but cannot
        touch cold data camped on a barely-erased full block; migrating
        it returns those cycles to the pool.  Migrations are paced to at
        most one per block's worth of device erases: a migration costs
        about one block cycle itself (relocate every valid page, then
        erase), so any tighter cadence lets a deep cold pool monopolize
        the allocation path — every post-erase allocation would launch
        another full-block relocation and foreground writes would crawl.
        """
        wear = self.device.wear
        total = wear.total_erases
        if (self._wl_last_total_erases >= 0
                and total - self._wl_last_total_erases
                < self.geometry.pages_per_block):
            return
        if self.allocator.free_blocks < self.gc_low_watermark:
            # Never spend the GC reserve on leveling.  Exactly *at* the
            # watermark is fine — ``ensure_space`` stops there, and a
            # migration hands its victim back to the free pool.
            return
        candidates = [key for key in self.map.sealed
                      if key not in self._suspect]
        if not candidates:
            return
        victim_key = min(candidates, key=lambda key: (
            wear.erase_count(self._addr_of(key)), key))
        # Spread is measured against the coldest *migratable* block, not
        # the tracker's touched-only view: prefilled cold data sits on
        # never-erased blocks the tracker would exclude, and those are
        # exactly the blocks leveling exists to recirculate.
        spread = (wear.max_erase_count
                  - wear.erase_count(self._addr_of(victim_key)))
        if spread < self.wl_spread_threshold:
            return
        self._wl_last_total_erases = total
        yield from self.collect_once("wl", victim_key)
        self.ops["erase", "wl", None] += 1

    def _relocate_valid_pages(self, victim: PhysAddr, cause: str):
        """Move every still-valid page of ``victim`` elsewhere (DES
        generator) — the shared relocation loop of GC, wear leveling,
        and chip evacuation.

        Relocation never races foreground completions: the mapping is
        re-checked after the relocation read and again after the
        relocation write, so an LPN a foreground write remapped (or a
        TRIM invalidated) while its copy was in flight keeps the newer
        state — last-completer-wins is decided by the *map*, never by
        GC overwriting it with stale data.

        A relocation read that comes back ECC-uncorrectable is an
        unrecoverable loss: the only copy is gone, the LPN is unmapped
        (it reads as erased from now on), and the loss is counted —
        the collection pass itself keeps going.  Programs and losses
        are charged to ``cause``.
        """
        for page_addr in list(self.map.valid_pages_of(victim)):
            lpn = self.map.reverse(page_addr)
            if lpn is None:
                continue
            try:
                data = yield from self.gc_port.read_page(page_addr)
            except UncorrectablePageError:
                if self.map.reverse(page_addr) == lpn:
                    self.map.unmap(lpn)
                    self._record_loss(cause)
                continue
            if self.map.reverse(page_addr) != lpn:
                # A foreground write or TRIM overtook the relocation
                # while the read was in flight: nothing left to move.
                continue
            dest = yield from self._program(lpn, data,
                                            self.gc_port.write_page, (),
                                            cause)
            if self.map.reverse(page_addr) != lpn:
                # Overtaken during the program: the copy at ``dest`` is
                # stale.  Keep the newer mapping (or the TRIM) — never
                # clobber it with relocated data — and leave ``dest``
                # programmed-and-invalid for a later GC pass.
                self.ops["program", cause, None] += 1
                continue
            self.map.map_page(lpn, dest)
            self.ops["program", cause, self.owner_of(lpn)] += 1

    def _await_no_readers(self, victim_key: _BlockKey):
        """Erase barrier: foreground reads that resolved a page of this
        block before the relocation must finish first — erasing under
        them would hand back erased bytes instead of their data."""
        while self._reading.get(victim_key):
            gate = Event(self.sim)
            self._read_gates.setdefault(victim_key, []).append(gate)
            yield gate

    def collect_once(self, cause: str,
                     victim_key: Optional[_BlockKey] = None):
        """Greedy GC: relocate the fewest-valid full block through the
        GC port, erase it.  Returns True if reclaimed.

        The victim is the page map's index top,
        :meth:`~repro.ftl.mapping.PageMap.min_victim`: the least
        ``(valid_count, block_key)`` over the sealed blocks, kept
        incrementally instead of rescanned per pick.  The tiebreak is
        the block key tuple, so equal-validity ties resolve identically
        on every run and every facade — GC victim order is reproducible
        by construction, never an artifact of set-iteration order.

        ``cause`` is ``gc`` or ``wl``, the static wear leveler, whose
        explicit ``victim_key`` is collected even when every page is
        still valid (a pure migration frees no space but moves the cold
        data off a barely-erased block).

        A failed erase (injected fault or endurance exceeded — the card
        already marked the block grown-bad) is not fatal: the block is
        retired from the allocator instead of released, as are blocks
        that went *suspect* after a program failure.
        """
        if victim_key is None:
            victim_key = self.map.min_victim()
        if victim_key is None:
            return False
        victim = self._addr_of(victim_key)
        if (cause == "gc" and self.map.valid_count(victim)
                >= self.geometry.pages_per_block):
            # Every page still valid: nothing to reclaim anywhere.
            return False
        self.map.unseal(victim_key)
        self.gc_victims.append(victim_key)
        yield from self._relocate_valid_pages(victim, cause)
        yield from self._await_no_readers(victim_key)
        try:
            yield from self.gc_port.erase_block(victim)
            erased = True
        except EraseError:
            # The card marked the block grown-bad; retire it below.
            erased = False
        self.map.drop_block(victim)
        # The block only became a victim once fully programmed, so no
        # writer can still be gated on it; reset its program cursor for
        # the next time the allocator opens it.
        self._program_next.pop(victim_key, None)
        if victim_key in self._suspect:
            self._suspect.discard(victim_key)
            self.device.badblocks.mark_bad(victim)
        if not erased or self.device.badblocks.is_bad(victim):
            self.allocator.retire_block(victim)
            self.ops["retire", cause, None] += 1
        else:
            self.allocator.release_block(victim)
        return True

    def force_gc(self):
        """Run one GC pass under the allocation lock (DES generator)
        -> bool reclaimed."""
        yield self._lock.request()
        try:
            reclaimed = yield from self.collect_once("gc")
        finally:
            self._lock.release()
        return reclaimed

    # -- chip evacuation ---------------------------------------------------
    def evacuate_block(self, card: int, bus: int, chip: int, block: int):
        """Relocate one block's valid pages and retire it WITHOUT
        erasing it (DES generator; the allocation lock must be held).
        Returns True if the block held any state.

        The block is marked grown-bad and dropped from the allocator —
        the dying chip may no longer be able to erase, so unlike GC the
        block never returns to the free pool.
        """
        key = (self.device.node, card, bus, chip, block)
        victim = self._addr_of(key)
        had_state = (key in self._program_next
                     or self.map.valid_count(victim) > 0)
        if not had_state:
            return False
        yield from self._relocate_valid_pages(victim, "evacuate")
        yield from self._await_no_readers(key)
        self.map.drop_block(victim)
        self.map.unseal(key)
        self._program_next.pop(key, None)
        self._suspect.discard(key)
        self.device.badblocks.mark_bad(victim)
        self.allocator.retire_block(victim)
        self.ops["retire", "evacuate", None] += 1
        return True

    def evacuate_chip(self, card: int, bus: int, chip: int):
        """Move everything off a dying chip (DES generator).

        The chip leaves allocation first (new writes land elsewhere),
        then its blocks are evacuated one at a time — each block's
        relocation runs under the allocation lock like a GC pass, and
        the lock is released between blocks so foreground writers
        interleave with the evacuation instead of stalling behind it.
        Relocation I/O rides the GC port, so on a volume the evacuation
        competes under the configured QoS policy.  Reads still work on
        a dead chip — stored charge survives controller death — so data
        comes off intact unless a page was independently unreadable,
        which counts as a loss.
        """
        yield self._lock.request()
        try:
            self.allocator.retire_chip(card, bus, chip)
        finally:
            self._lock.release()
        for block in range(self.geometry.blocks_per_chip):
            yield self._lock.request()
            try:
                yield from self.evacuate_block(card, bus, chip, block)
            finally:
                self._lock.release()
        self.ops["retire_chip", "evacuate", None] += 1
