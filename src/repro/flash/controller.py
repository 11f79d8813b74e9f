"""The flash card controller: thin, tagged, out-of-order, error-corrected.

This is the paper's Section 3.1.1 interface: "a low-level, thin, fast and
bit-error corrected hardware interface to raw NAND flash chips, buses,
blocks and pages".  Key properties reproduced here:

* **Tagged commands** — a bounded tag pool bounds in-flight operations;
  completions arrive out of order with respect to issue ("the controller
  may send these data bursts out of order ... interleaved with other read
  requests"), and multiple commands *must* be in flight to saturate the
  device because single-op latency is ~50 µs.  Only the pool's size
  matters to the model, so tags are counted, not numbered: the pool is
  a :class:`~repro.sim.Resource` and a completion carries just its
  page's bytes.
* **All degrees of parallelism exposed** — each chip and each bus is an
  independent resource; requests to different buses/chips overlap fully.
* **Error-free logical view** — ECC decode runs on every read that took a
  bit flip; uncorrectable pages raise and the block is retired
  (grown bad block).

The controller is one *card*; a node has two (Section 5.1), aggregated by
:class:`repro.core.node.BlueDBMNode`.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from ..io import BatchStageSpan, IORequest, StageSpan
from ..sim import Resource, Simulator, units
from . import ecc
from .chip import (
    BadBlockProgramError,
    EraseError,
    ErrorModel,
    FlashChip,
    FlashTiming,
    ProgramError,
    ProgramFailedError,
)
from .geometry import DEFAULT_GEOMETRY, FlashGeometry, PhysAddr
from .health import BadBlockTable, WearTracker
from .store import PageStore

__all__ = ["FlashCard", "UncorrectablePageError", "PartialReadError"]


class UncorrectablePageError(Exception):
    """ECC detected more errors than it can correct on this page."""

    def __init__(self, addr: PhysAddr):
        super().__init__(f"uncorrectable ECC error at {addr}")
        self.addr = addr


class PartialReadError(Exception):
    """A multi-page command finished with some pages failed.

    ``results`` / ``errors`` are parallel to the command's address
    list: exactly one of ``results[i]`` (the page's bytes) /
    ``errors[i]`` is set per page, so a caller fanning completions
    back out (the splitter's coalescer) can settle the successful
    pages normally and fail only the ones that actually went bad.
    """

    def __init__(self, results: list, errors: list):
        failed = [str(e.addr) for e in errors
                  if isinstance(e, UncorrectablePageError)]
        super().__init__(
            f"{sum(e is not None for e in errors)} of {len(errors)} "
            f"pages failed in a multi-page command ({', '.join(failed)})")
        self.results = results
        self.errors = errors


class FlashCard:
    """One custom flash board: 8 buses x 8 chips behind a tagged interface.

    All public operations are DES generators: a caller that waits for
    one runs it inline with ``yield from card.read_page(addr)``; only
    operations meant to overlap (the per-page reads and per-lane
    programs of a multi-page command) are spawned as processes and
    joined, which is how the card's parallelism is exploited.
    """

    def __init__(self, sim: Simulator,
                 geometry: FlashGeometry = DEFAULT_GEOMETRY,
                 timing: Optional[FlashTiming] = None,
                 errors: Optional[ErrorModel] = None,
                 wear: Optional[WearTracker] = None,
                 badblocks: Optional[BadBlockTable] = None,
                 store: Optional[PageStore] = None,
                 node: int = 0, card: int = 0,
                 tags: int = 128, seed: int = 0):
        if tags < 1:
            raise ValueError(f"tag count must be >= 1, got {tags}")
        self.sim = sim
        self.geometry = geometry
        self.timing = timing or FlashTiming()
        self.errors = errors or ErrorModel()
        self.node = node
        self.card = card
        self.store = store if store is not None else PageStore(geometry)
        self.wear = wear if wear is not None else WearTracker()
        self.badblocks = (badblocks if badblocks is not None
                          else BadBlockTable())
        self.rng = random.Random(seed ^ (node << 16) ^ card)

        self.chips: Dict[Tuple[int, int], FlashChip] = {}
        for bus in range(geometry.buses_per_card):
            for chip in range(geometry.chips_per_bus):
                self.chips[(bus, chip)] = FlashChip(
                    sim, geometry, self.timing, self.store, self.wear,
                    self.errors, self.rng, node, card, bus, chip)
        self.buses = [Resource(sim, capacity=1, name=f"bus-{b}")
                      for b in range(geometry.buses_per_card)]
        # The aurora serial link from the card's Artix-7 up to the host
        # FPGA; 3.3 GB/s, far above the 1.2 GB/s NAND-side ceiling.
        self.aurora = Resource(sim, capacity=1, name="aurora")

        # Whole-page transfers dominate; cache their (constant) duration
        # so the per-page service path skips the division entirely.
        self._page_bus_ns = units.transfer_ns(
            geometry.page_size, self.timing.bus_bytes_per_ns)
        self._page_aurora_ns = units.transfer_ns(
            geometry.page_size, self.timing.aurora_bytes_per_ns)

        self._tags = Resource(sim, capacity=tags, name="tags")
        self.tag_count = tags

        # Fault counts the benchmarks read.
        self.uncorrectable = 0
        self.program_failures = 0

    # -- internals ---------------------------------------------------------
    def _chip(self, addr: PhysAddr) -> FlashChip:
        if addr.node != self.node or addr.card != self.card:
            raise ValueError(f"{addr} not on card {self.card} "
                             f"of node {self.node}")
        key = addr[2:4]  # (bus, chip)
        if key not in self.chips:
            raise ValueError(f"{addr} addresses a nonexistent chip")
        return self.chips[key]

    def _bus_transfer_ns(self, num_bytes: int) -> int:
        if num_bytes == self.geometry.page_size:
            return self._page_bus_ns
        return units.transfer_ns(num_bytes, self.timing.bus_bytes_per_ns)

    def _aurora_transfer_ns(self, num_bytes: int) -> int:
        if num_bytes == self.geometry.page_size:
            return self._page_aurora_ns
        return units.transfer_ns(num_bytes, self.timing.aurora_bytes_per_ns)

    # -- tagged operations ---------------------------------------------------
    def read_page(self, addr: PhysAddr, request: Optional[IORequest] = None):
        """Tagged page read; returns the page's (corrected) bytes.

        Timeline: acquire tag -> command overhead -> chip array read
        (t_read) -> bus transfer -> aurora transfer to the host FPGA ->
        ECC decode -> release tag.

        ``request`` is the unified-pipeline request being served, if the
        caller traces; tag wait, array access, and card-internal data
        movement are charged to its ``tag``/``storage``/``device`` stages.
        """
        chip = self._chip(addr)
        if self.badblocks.is_bad(addr):
            raise UncorrectablePageError(addr)
        with StageSpan(self.sim, request, "tag"):
            yield self._tags.request()
        try:
            with StageSpan(self.sim, request, "storage"):
                yield self.sim.timeout(self.timing.cmd_overhead_ns)
            results = [None]
            errors = [None]
            yield from self._page_read(addr, chip, request, 0, results,
                                       errors)
            if errors[0] is not None:
                raise errors[0]
            return results[0]
        finally:
            self._tags.release()

    def read_pages(self, addrs, requests=None):
        """One multi-page command: a single tag and one command setup
        amortized over several page reads (DES generator).

        This is the card half of splitter-admission coalescing: the
        whole group holds *one* physical tag and pays
        ``cmd_overhead_ns`` once, then every page's array read proceeds
        concurrently (the addresses of a stripe-adjacent run land on
        distinct buses, so the chip reads and bus transfers overlap;
        the aurora link serializes the payloads as usual).  The command
        retires — and the tag frees — when the last page has
        transferred.

        ``requests`` is an optional parallel list of per-page
        :class:`~repro.io.request.IORequest`\\ s; shared waits (tag,
        command setup) are charged to every child via
        :class:`~repro.io.stage.BatchStageSpan`, per-page service to
        each child alone, so the tracer still attributes queueing vs.
        service per page.  Returns the pages' bytes in input order; if
        any page fails, raises :class:`PartialReadError` carrying
        per-page outcomes so the successful siblings' bytes are not
        lost.
        """
        if not addrs:
            return []
        requests = (list(requests) if requests is not None
                    else [None] * len(addrs))
        if len(requests) != len(addrs):
            raise ValueError(
                f"{len(requests)} requests for {len(addrs)} addresses")
        chips = [self._chip(addr) for addr in addrs]
        results: list = [None] * len(addrs)
        if self.badblocks.pristine:
            # Fast path: no block anywhere is bad, skip per-page checks.
            errors: list = [None] * len(addrs)
        else:
            errors = [
                UncorrectablePageError(addr) if self.badblocks.is_bad(addr)
                else None
                for addr in addrs]
            if all(error is not None for error in errors):
                # Nothing readable: fail like read_page does, pre-tag.
                raise PartialReadError(results, errors)
        with BatchStageSpan(self.sim, requests, "tag"):
            yield self._tags.request()
        try:
            with BatchStageSpan(self.sim, requests, "storage"):
                yield self.sim.timeout(self.timing.cmd_overhead_ns)
            procs = [
                self.sim.process(self._page_read(
                    addr, chip, request, index, results, errors))
                for index, (addr, chip, request)
                in enumerate(zip(addrs, chips, requests))
                if errors[index] is None
            ]
            for proc in procs:
                yield proc
            if any(error is not None for error in errors):
                raise PartialReadError(results, errors)
            return results
        finally:
            self._tags.release()

    def _page_read(self, addr: PhysAddr, chip, request, index: int,
                   results: list, errors: list):
        """Array read + card-internal transfer + ECC for one page.

        The one per-page read body: :meth:`read_page` runs it inline,
        and each page of a multi-page command runs it as a sibling
        process.  The outcome is parked in ``results[index]`` or
        ``errors[index]`` instead of raised, because the sibling pages
        have no waiter of their own and the command must retire as a
        unit either way; the caller owns the tag and the per-command
        setup.
        """
        with StageSpan(self.sim, request, "storage"):
            data, parity, flips = yield from chip.read(addr)
        with StageSpan(self.sim, request, "device"):
            bus = self.buses[addr.bus]
            yield bus.request()
            try:
                yield self.sim.timeout(self._page_bus_ns)
            finally:
                bus.release()
            yield self.aurora.request()
            try:
                yield self.sim.timeout(
                    self.timing.aurora_latency_ns + self._page_aurora_ns)
            finally:
                self.aurora.release()
        if flips:
            try:
                data, _ = ecc.decode_page(data, parity)
            except ecc.UncorrectableError:
                self.uncorrectable += 1
                self.badblocks.mark_bad(addr)
                errors[index] = UncorrectablePageError(addr)
                return
        results[index] = data

    def program_pages(self, addrs, datas, requests=None):
        """One multi-page program command: a single tag and one command
        setup amortized over several page programs (DES generator).

        The write half of splitter-admission coalescing: the whole
        group holds *one* physical tag and pays ``cmd_overhead_ns``
        once; then each page's data moves down (aurora + bus) and
        programs on its chip.  Pages on distinct chips proceed
        concurrently (a stripe-adjacent run lands on distinct buses);
        pages sharing a chip execute strictly in input order, so the
        NAND program-order rule inside a block is preserved exactly as
        a sequence of single-page commands would have.

        Hard NAND rules enforced up front, before any timing:

        * every address must be on this card and on a good block;
        * within one block, input pages must be strictly increasing —
          a group that would *reorder* programs inside a block is
          rejected with :class:`ProgramError` (and
          :class:`~repro.flash.chip.FlashChip.program` independently
          rejects reprogramming a page that is already programmed).

        The order rule is scoped to this command: across *separate*
        commands the card programs whatever arrives, so preserving
        in-block order under concurrent submission is the write path's
        job — :class:`~repro.volume.LogicalVolume` gates same-block
        programs into allocation order before they reach the splitter,
        while raw physical access is deliberately unpoliced.

        ``requests`` mirrors :meth:`read_pages`: shared waits (tag,
        command setup) are charged to every child, per-page transfer
        and program time to each child alone.
        """
        addrs = list(addrs)
        datas = list(datas)
        if not addrs:
            return
        if len(datas) != len(addrs):
            raise ValueError(
                f"{len(datas)} payloads for {len(addrs)} addresses")
        requests = (list(requests) if requests is not None
                    else [None] * len(addrs))
        if len(requests) != len(addrs):
            raise ValueError(
                f"{len(requests)} requests for {len(addrs)} addresses")
        chips = [self._chip(addr) for addr in addrs]
        if not self.badblocks.pristine:
            for addr in addrs:
                if self.badblocks.is_bad(addr):
                    raise BadBlockProgramError(
                        f"program to bad block at {addr}")
        last_page: Dict[tuple, int] = {}
        for addr in addrs:
            block_key = (addr.bus, addr.chip, addr.block)
            previous = last_page.get(block_key)
            if previous is not None and addr.page <= previous:
                raise ProgramError(
                    f"multi-page command reorders programs within block "
                    f"{addr.block_addr()} (page {addr.page} after "
                    f"{previous})")
            last_page[block_key] = addr.page
        with BatchStageSpan(self.sim, requests, "tag"):
            yield self._tags.request()
        try:
            with BatchStageSpan(self.sim, requests, "storage"):
                yield self.sim.timeout(self.timing.cmd_overhead_ns)
            # One sequential lane per chip (program order within a
            # block), all lanes concurrent across chips.
            lanes: Dict[tuple, list] = {}
            for index, addr in enumerate(addrs):
                lanes.setdefault((addr.bus, addr.chip), []).append(index)
            # A lane parks an injected program failure instead of
            # failing its process, as ``_page_read`` parks a read's: the
            # lanes run as siblings with no waiter of their own, and a
            # waiterless failure crashes the simulation.  The command
            # retires as a unit, then reports the first failure.
            failures: list = []
            procs = [
                self.sim.process(self._lane_program(
                    [(addrs[i], datas[i], chips[i], requests[i])
                     for i in indices], failures))
                for indices in lanes.values()
            ]
            for proc in procs:
                yield proc
            if failures:
                raise failures[0]
        finally:
            self._tags.release()

    def _lane_program(self, pages, failures: list):
        """Program one chip's pages in order: data movement down, then
        the program, for each page.

        The one per-page program body: :meth:`write_page` runs a
        one-page lane inline, and each chip's share of a multi-page
        command runs as a sibling process.  An injected
        :class:`~repro.flash.chip.ProgramFailedError` is counted, stops
        the lane (its remaining pages are never programmed) and is
        parked in ``failures`` for the caller to raise.  The block is
        NOT marked bad here: its already-programmed sibling pages must
        stay readable, so the FTL retires it as suspect at its next
        erase instead.
        """
        sim = self.sim
        for addr, data, chip, request in pages:
            with StageSpan(sim, request, "device"):
                yield self.aurora.request()
                try:
                    yield sim.timeout(self.timing.aurora_latency_ns
                                      + self._aurora_transfer_ns(len(data)))
                finally:
                    self.aurora.release()
                bus = self.buses[addr.bus]
                yield bus.request()
                try:
                    yield sim.timeout(self._bus_transfer_ns(len(data)))
                finally:
                    bus.release()
            with StageSpan(sim, request, "storage"):
                try:
                    yield from chip.program(addr, data)
                except ProgramFailedError as exc:
                    self.program_failures += 1
                    failures.append(exc)
                    return

    def write_page(self, addr: PhysAddr, data: bytes,
                   request: Optional[IORequest] = None):
        """Tagged page program.

        Timeline mirrors the paper's write flow: the command is issued,
        then the controller's scheduler requests the data (aurora + bus
        transfer down to the chip), then the chip programs (t_prog).
        """
        chip = self._chip(addr)
        if self.badblocks.is_bad(addr):
            raise BadBlockProgramError(f"program to bad block at {addr}")
        with StageSpan(self.sim, request, "tag"):
            yield self._tags.request()
        try:
            with StageSpan(self.sim, request, "storage"):
                yield self.sim.timeout(self.timing.cmd_overhead_ns)
            failures: list = []
            yield from self._lane_program([(addr, data, chip, request)],
                                          failures)
            if failures:
                raise failures[0]
        finally:
            self._tags.release()

    def erase_block(self, addr: PhysAddr, request: Optional[IORequest] = None):
        """Tagged block erase; retires the block on erase failure."""
        chip = self._chip(addr)
        with StageSpan(self.sim, request, "tag"):
            yield self._tags.request()
        try:
            with StageSpan(self.sim, request, "storage"):
                yield self.sim.timeout(self.timing.cmd_overhead_ns)
                try:
                    yield from chip.erase(addr)
                except EraseError:
                    self.badblocks.mark_bad(addr)
                    raise
        finally:
            self._tags.release()

    # -- capacity views ------------------------------------------------------
    def peak_read_bandwidth(self) -> float:
        """Theoretical card read ceiling in GB/s (bus-limited)."""
        return min(
            self.timing.bus_bytes_per_ns * self.geometry.buses_per_card,
            self.timing.aurora_bytes_per_ns)
