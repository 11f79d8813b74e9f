"""Deterministic fault schedules: the flash learns to lie, repeatably.

The paper's array only works because firmware hides NAND's limited
endurance and "frequent errors" (Section 3.1).  This module supplies
the lying half: a :class:`FaultPlan` is a *pure* seeded schedule — every
decision (does this program fail?  does this read come back
uncorrectable?) is a function of the seed and the operation's identity
(block key, page, per-block ordinal), hashed through BLAKE2s.  Nothing
depends on wall-clock interleaving, process order, or RNG draw order,
so the same seed produces the same fault schedule across reruns, across
facades, and across ``--jobs N`` worker processes.

A :class:`FaultInjector` wraps one plan with the small amount of
runtime state the chip model needs (per-block read counts since the
last erase, injection counters) and applies the time gates (burst
window, chip-failure onset).  The chip consults it only when installed
— ``chip.faults is None`` is the default and costs nothing, keeping
every pre-existing run byte-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..flash.geometry import PhysAddr

__all__ = ["FaultPlan", "FaultInjector"]

_BlockKey = Tuple[int, int, int, int, int]


def _block_key(addr: PhysAddr) -> _BlockKey:
    return addr[:5]


@dataclass(frozen=True)
class FaultPlan:
    """A pure, seeded fault schedule.

    ``program_fail_rate`` / ``erase_fail_rate`` are per-operation
    probabilities, active only inside the burst window
    ``[window_start_ns, window_end_ns)`` (an unbounded window when both
    are ``None``).  ``wear_ber`` arms wear-out: once a block's wear
    fraction passes ``wear_ber_onset``, reads are uncorrectable with a
    probability that ramps linearly from 0 to ``wear_ber`` at 100 % wear
    (and saturates beyond).  ``fail_chip`` kills one chip — all programs and erases on
    ``(card, bus, chip)`` fail after ``fail_chip_after_ns``; reads keep
    working (the stored charge is intact), which is what makes
    evacuation possible.
    """

    seed: int = 0
    program_fail_rate: float = 0.0
    erase_fail_rate: float = 0.0
    window_start_ns: Optional[int] = None
    window_end_ns: Optional[int] = None
    wear_ber: float = 0.0
    wear_ber_onset: float = 0.75
    fail_chip: Optional[Tuple[int, int, int]] = None
    fail_chip_after_ns: int = 0

    def __post_init__(self):
        for name in ("program_fail_rate", "erase_fail_rate", "wear_ber"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 <= self.wear_ber_onset < 1.0:
            raise ValueError(
                f"wear_ber_onset must be in [0, 1), got {self.wear_ber_onset}")

    # -- the hash that replaces an RNG --------------------------------------
    def _unit(self, kind: str, *key: int) -> float:
        """A uniform fraction in [0, 1) keyed by (seed, kind, identity).

        Deterministic by construction: no draw order, no shared stream.
        """
        token = f"{self.seed}:{kind}:" + ":".join(str(k) for k in key)
        digest = hashlib.blake2s(token.encode()).digest()
        return int.from_bytes(digest[:8], "big") / (1 << 64)

    # -- pure decisions ------------------------------------------------------
    def in_window(self, now: int) -> bool:
        """Is the program/erase burst active at simulated time ``now``?"""
        if self.window_start_ns is not None and now < self.window_start_ns:
            return False
        if self.window_end_ns is not None and now >= self.window_end_ns:
            return False
        return True

    def chip_dead(self, addr: PhysAddr, now: int) -> bool:
        """Has ``addr``'s chip been declared dying at time ``now``?"""
        if self.fail_chip is None:
            return False
        return ((addr.card, addr.bus, addr.chip) == self.fail_chip
                and now >= self.fail_chip_after_ns)

    def fails_program(self, key: _BlockKey, page: int, cycle: int) -> bool:
        """Does programming ``page`` of ``key`` on erase-cycle ``cycle``
        fail?  Keyed per (block, page, cycle): a rewrite after recovery
        lands on a different page and rolls fresh odds."""
        if self.program_fail_rate <= 0.0:
            return False
        return self._unit("prog", *key, page, cycle) < self.program_fail_rate

    def fails_erase(self, key: _BlockKey, cycle: int) -> bool:
        """Does the ``cycle``-th erase of block ``key`` fail?"""
        if self.erase_fail_rate <= 0.0:
            return False
        return self._unit("erase", *key, cycle) < self.erase_fail_rate

    def read_uncorrectable(self, key: _BlockKey, read_index: int,
                           wear_fraction: float) -> bool:
        """Does the ``read_index``-th read of ``key`` since its last
        erase come back ECC-uncorrectable?"""
        if self.wear_ber > 0.0 and wear_fraction >= self.wear_ber_onset:
            span = 1.0 - self.wear_ber_onset
            ramp = min(1.0, (wear_fraction - self.wear_ber_onset) / span)
            if self._unit("wear", *key, read_index) < self.wear_ber * ramp:
                return True
        return False


class FaultInjector:
    """Runtime face of one :class:`FaultPlan` for one node's chips.

    Holds the only mutable state fault injection needs — per-block read
    counts since the last erase (the wear-out hash's read ordinal) and
    the injection counters the metrics layer surfaces.  All *decisions*
    delegate to the pure plan, so two runs that issue the same
    operations see the same faults regardless of interleaving.
    """

    def __init__(self, plan: FaultPlan, node: int = 0):
        self.plan = plan
        self.node = node
        self._reads_since_erase: Dict[_BlockKey, int] = {}
        self.program_failures = 0
        self.erase_failures = 0
        self.read_uncorrectables = 0
        self.chip_refusals = 0

    # -- chip-model hooks ----------------------------------------------------
    def program_fails(self, addr: PhysAddr, cycle: int, now: int) -> bool:
        """Consulted by :meth:`FlashChip.program` after the program time
        has been billed; ``cycle`` is the block's current erase count."""
        if self.plan.chip_dead(addr, now):
            self.chip_refusals += 1
            return True
        if self.plan.in_window(now) \
                and self.plan.fails_program(_block_key(addr), addr.page,
                                            cycle):
            self.program_failures += 1
            return True
        return False

    def erase_fails(self, addr: PhysAddr, cycle: int, now: int) -> bool:
        """Consulted by :meth:`FlashChip.erase`; ``cycle`` is the count
        *including* the erase being attempted."""
        if self.plan.chip_dead(addr, now):
            self.chip_refusals += 1
            return True
        if self.plan.in_window(now) \
                and self.plan.fails_erase(_block_key(addr), cycle):
            self.erase_failures += 1
            return True
        return False

    def read_flips(self, addr: PhysAddr, wear_fraction: float,
                   natural: int) -> int:
        """Consulted by :meth:`FlashChip.read` after the natural error
        model ran; may elevate the flip count to 2 (uncorrectable for
        SECDED).  Reads on a dead chip still return data — stored
        charge survives controller death, which is what evacuation
        relies on."""
        key = _block_key(addr)
        index = self._reads_since_erase.get(key, 0)
        self._reads_since_erase[key] = index + 1
        if natural >= 2:
            return natural
        if self.plan.read_uncorrectable(key, index, wear_fraction):
            self.read_uncorrectables += 1
            return 2
        return natural

    def note_erase(self, addr: PhysAddr) -> None:
        """A successful erase restarts the block's read ordinal."""
        self._reads_since_erase.pop(_block_key(addr), None)

    def stats(self) -> Dict[str, int]:
        return {
            "program_failures": self.program_failures,
            "erase_failures": self.erase_failures,
            "read_uncorrectables": self.read_uncorrectables,
            "chip_refusals": self.chip_refusals,
        }
