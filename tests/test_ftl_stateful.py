"""Stateful property test: the FTL against a dict reference model.

Hypothesis drives random sequences of write/overwrite/trim/read against
the block-device FTL while a plain dict records what *should* be
stored.  Any divergence — lost writes, stale reads after overwrite,
GC corrupting live data, TRIM resurrecting pages — fails the machine,
as does a GC victim index that disagrees with a scan of the sealed
blocks.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.flash import FlashGeometry, FlashTiming
from repro.flash.device import StorageDevice
from repro.ftl import BlockDeviceFTL, FtlCore
from repro.sim import Simulator

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=8,
                    pages_per_block=4, page_size=64, cards_per_node=1)
FAST = FlashTiming(t_read_ns=100, t_prog_ns=200, t_erase_ns=500,
                   bus_bytes_per_ns=1.0, aurora_bytes_per_ns=3.3,
                   aurora_latency_ns=1, cmd_overhead_ns=1)


class FTLMachine(RuleBasedStateMachine):
    """Random workload vs reference dict."""

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        device = StorageDevice(self.sim, geometry=GEO, timing=FAST)
        self.ftl = BlockDeviceFTL(self.sim, device, overprovision=0.5,
                                  gc_low_watermark=2)
        self.reference = {}

    def _run(self, generator):
        return self.sim.run_process(generator)

    @rule(lpn=st.integers(min_value=0, max_value=47),
          payload=st.binary(min_size=1, max_size=64))
    def write(self, lpn, payload):
        lpn %= self.ftl.logical_pages
        self._run(self.ftl.write(lpn, payload))
        padded = payload + b"\xff" * (64 - len(payload))
        self.reference[lpn] = padded

    @rule(lpn=st.integers(min_value=0, max_value=47))
    def trim(self, lpn):
        lpn %= self.ftl.logical_pages
        self._run(self.ftl.trim(lpn))
        self.reference.pop(lpn, None)

    @rule(lpn=st.integers(min_value=0, max_value=47))
    def read_matches_reference(self, lpn):
        lpn %= self.ftl.logical_pages
        data = self._run(self.ftl.read(lpn))
        expected = self.reference.get(lpn, b"\xff" * 64)
        assert data == expected

    @invariant()
    def write_amplification_sane(self):
        assert self.ftl.core.write_amplification() >= 1.0

    @invariant()
    def victim_index_matches_scan(self):
        core = self.ftl.core
        scan = min(((core.map.valid_count(FtlCore._addr_of(key)), key)
                    for key in core.map.sealed), default=(None, None))
        assert core.map.min_victim() == scan[1]


TestFTLStateful = FTLMachine.TestCase
TestFTLStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None)
