"""Per-chip NAND timing, semantics, and bit-error injection.

A chip (die) executes one operation at a time: page read (~50 µs — the
paper's "flash operations can have latencies of 50 µs or more"), page
program, or block erase.  The chip enforces real NAND rules — no
reprogramming a page without an erase — and injects bit errors whose rate
grows with block wear, which the controller's ECC then corrects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict

from ..sim import Resource, Simulator, units
from .geometry import FlashGeometry, PhysAddr
from .health import BadBlockTable, WearTracker
from .store import PageStore

__all__ = ["FlashTiming", "ErrorModel", "FlashChip", "ProgramError",
           "ProgramFailedError", "EraseError"]


class ProgramError(Exception):
    """Illegal program operation (e.g. page not erased first)."""


class BadBlockProgramError(ProgramError):
    """Program rejected because the target block is marked bad.

    A :class:`ProgramError` subclass, but recoverable: a read can mark
    a block grown-bad *while* a writer already holds an allocated page
    in it, so the write path treats this like a failed program —
    retire the page, rewrite elsewhere — rather than a caller bug.
    """


class ProgramFailedError(Exception):
    """A legal program failed in the array (injected NAND fault).

    Distinct from :class:`ProgramError` (an illegal operation — a
    caller bug): this is the hardware failing honest work.  The page is
    consumed — NAND cannot retry a program in place — so recovery means
    rewriting to a *fresh* page and treating the block as suspect.
    """


class EraseError(Exception):
    """Erase failed; the block must be retired."""


@dataclass(frozen=True)
class FlashTiming:
    """NAND and card-internal timing parameters.

    Defaults reproduce the paper's card: 50 µs reads, 8 buses sharing
    1.2 GB/s per card (0.15 B/ns per bus), and a 4-lane aurora chip-to-host
    link at 3.3 GB/s with 0.5 µs latency (Section 5.1).
    """

    t_read_ns: int = 50 * units.US
    t_prog_ns: int = 300 * units.US
    t_erase_ns: int = 3 * units.MS
    bus_bytes_per_ns: float = 0.15       # 150 MB/s per bus x 8 = 1.2 GB/s
    aurora_bytes_per_ns: float = 3.3     # 3.3 GB/s card <-> host FPGA
    aurora_latency_ns: int = 500         # 0.5 us
    cmd_overhead_ns: int = 200           # command issue/decode

    def __post_init__(self):
        if self.t_read_ns <= 0 or self.t_prog_ns <= 0 or self.t_erase_ns <= 0:
            raise ValueError("flash op times must be positive")
        if self.bus_bytes_per_ns <= 0 or self.aurora_bytes_per_ns <= 0:
            raise ValueError("bandwidths must be positive")


@dataclass(frozen=True)
class ErrorModel:
    """Wear-dependent bit-error injection.

    ``page_error_prob`` is the probability a fresh page read contains a
    (correctable) single-bit flip; it grows linearly up to
    ``worn_multiplier`` x at rated endurance.  A small fraction of error
    events are double flips within one 64-bit word, which SECDED can only
    detect — exercising the grown-bad-block path.
    """

    page_error_prob: float = 0.0
    worn_multiplier: float = 20.0
    double_error_fraction: float = 0.02

    def __post_init__(self):
        if not 0.0 <= self.page_error_prob <= 1.0:
            raise ValueError("page_error_prob must be in [0, 1]")
        if not 0.0 <= self.double_error_fraction <= 1.0:
            raise ValueError("double_error_fraction must be in [0, 1]")

    def flips_for_read(self, wear_fraction: float,
                       rng: random.Random) -> int:
        """Number of bit flips to inject into this page read (0, 1, or 2)."""
        prob = self.page_error_prob * (
            1.0 + (self.worn_multiplier - 1.0) * min(1.0, wear_fraction))
        if prob <= 0.0 or rng.random() >= min(1.0, prob):
            return 0
        if rng.random() < self.double_error_fraction:
            return 2
        return 1


class FlashChip:
    """One NAND die: exclusive busy state plus functional page semantics."""

    def __init__(self, sim: Simulator, geometry: FlashGeometry,
                 timing: FlashTiming, store: PageStore, wear: WearTracker,
                 errors: ErrorModel, rng: random.Random,
                 node: int, card: int, bus: int, chip: int):
        self.sim = sim
        self.geometry = geometry
        self.timing = timing
        self.store = store
        self.wear = wear
        self.errors = errors
        self.rng = rng
        self.node = node
        self.card = card
        self.bus = bus
        self.chip = chip
        self.busy = Resource(sim, capacity=1,
                             name=f"chip-n{node}c{card}b{bus}ch{chip}")
        # Pages programmed since last erase, per block (NAND write
        # rule): bit p of ``_programmed[block]`` is page p.  A program
        # checks and sets its bit only once it holds the chip, and an
        # erase clears the block in the step that frees the chip, so a
        # program queued behind an erase sees the erased block.
        self._programmed: Dict[int, int] = {}
        # Optional fault injector (repro.faults.FaultInjector); None by
        # default — every consult below is gated on it, so fault-free
        # runs take no extra RNG draws and stay byte-identical.
        self.faults = None

    def _owns(self, addr: PhysAddr) -> bool:
        return addr[:4] == (self.node, self.card, self.bus, self.chip)

    def _check(self, addr: PhysAddr) -> None:
        if not self._owns(addr):
            raise ValueError(f"{addr} not on chip {self.chip} "
                             f"(bus {self.bus}, card {self.card})")
        self.geometry.validate(addr)

    # -- operations (DES generators; caller composes with bus transfer) ----
    #
    # The card runs each operation inline with ``yield from``.  Each
    # takes two zero-delay turns that decide nothing about the chip
    # but keep same-instant arbitration where it always was: the
    # *issue turn* before the chip is requested and the *completion
    # turn* before the caller sees the outcome (value or error).
    # Without them, which of two same-instant operations reaches a
    # chip first -- and so which program an injected fault hits --
    # changes, and results move.
    def read(self, addr: PhysAddr):
        """Array read: chip busy for t_read; returns (data, parity, flips).

        ``flips`` is the number of injected error bits; the raw (possibly
        corrupted) data is returned for the controller's ECC to fix.
        """
        self._check(addr)
        sim = self.sim
        yield sim.timeout(0)  # the issue turn
        yield self.busy.request()
        try:
            yield sim.timeout(self.timing.t_read_ns)
        finally:
            self.busy.release()
        data = self.store.read_data(addr)
        flips = self.errors.flips_for_read(self.wear.wear_fraction(addr),
                                           self.rng)
        if self.faults is not None:
            # Read-disturb / wear-out injection: may elevate to a
            # double flip (detectable-but-uncorrectable for SECDED).
            flips = self.faults.read_flips(
                addr, self.wear.wear_fraction(addr), flips)
        parity = None
        if flips:
            # Parity of the *clean* page, as the controller's decoder
            # would have from the on-die spare area.
            parity = self.store.parity(addr)
            data = self._flip_bits(data, flips)
        yield sim.timeout(0)  # the completion turn
        return data, parity, flips

    def program(self, addr: PhysAddr, data: bytes):
        """Page program: rejects reprogramming without erase.

        Only the no-reprogram rule is enforced here.  The in-block
        *order* rule (ascending pages since erase) is checked per
        command by :meth:`~repro.flash.controller.FlashCard.
        program_pages` and preserved *across* commands by the write
        path that owns allocation (:class:`~repro.volume.
        LogicalVolume` gates same-block programs into allocation
        order); raw physical access may program a block's free pages
        in any order, which real NAND would forbid but this model
        deliberately permits for address-pattern experiments.
        """
        self._check(addr)
        sim = self.sim
        yield sim.timeout(0)  # the issue turn
        yield self.busy.request()
        try:
            programmed = self._programmed.get(addr.block, 0)
            bit = 1 << addr.page
            if programmed & bit:
                raise ProgramError(
                    f"page {addr} already programmed since last erase")
            # The page is consumed whether or not the program succeeds
            # (no in-place retry on NAND).
            self._programmed[addr.block] = programmed | bit
            yield sim.timeout(self.timing.t_prog_ns)
        finally:
            self.busy.release()
        if self.faults is not None and self.faults.program_fails(
                addr, self.wear.erase_count(addr), sim.now):
            # The program time is billed, but the array holds no data.
            yield sim.timeout(0)  # the completion turn
            raise ProgramFailedError(f"program failed at {addr}")
        self.store.program(addr, data)
        yield sim.timeout(0)  # the completion turn

    def erase(self, addr: PhysAddr):
        """Block erase: clears contents, ages the block.

        Raises :class:`EraseError` once the block exceeds rated endurance
        (the controller should then mark it grown-bad).
        """
        self._check(addr)
        sim = self.sim
        yield sim.timeout(0)  # the issue turn
        yield self.busy.request()
        try:
            yield sim.timeout(self.timing.t_erase_ns)
        finally:
            self.busy.release()
        count = self.wear.record_erase(addr)
        if self.faults is not None and self.faults.erase_fails(
                addr, count, sim.now):
            # Injected erase failure: the block keeps its old contents
            # (and its read count) and must be retired.
            yield sim.timeout(0)  # the completion turn
            raise EraseError(f"erase failed at {addr.block_addr()}")
        self.store.erase_block(addr)
        self._programmed.pop(addr.block, None)
        if self.faults is not None:
            self.faults.note_erase(addr)
        yield sim.timeout(0)  # the completion turn
        if count > self.wear.endurance:
            raise EraseError(
                f"block {addr.block_addr()} exceeded endurance "
                f"({count} > {self.wear.endurance})")

    # -- helpers ------------------------------------------------------------
    def _flip_bits(self, data: bytes, flips: int) -> bytes:
        """Flip ``flips`` distinct bits; doubles land in one 64-bit word so
        they are detectable-but-uncorrectable for SECDED."""
        corrupted = bytearray(data)
        first_bit = self.rng.randrange(len(data) * 8)
        corrupted[first_bit // 8] ^= 1 << (first_bit % 8)
        if flips >= 2:
            word = (first_bit // 64) * 64
            second_bit = first_bit
            while second_bit == first_bit:
                second_bit = word + self.rng.randrange(64)
            corrupted[second_bit // 8] ^= 1 << (second_bit % 8)
        return bytes(corrupted)
