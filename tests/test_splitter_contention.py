"""Property-style tests: the splitter's per-port cap under heavy contention.

The splitter's contract (Section 3.1.2): the paper's tag renaming keeps
things fair by capping how many card tags one user holds, so a port can
never hold more in-flight commands than its cap, and every port slot
and card tag comes back, no matter how reads, writes, and error paths
interleave.  These tests drive many concurrent workers through
interleaved read/write/error operations and check the invariants at
every completion.
"""

import random

import pytest

from repro.flash import (
    FlashGeometry,
    FlashSplitter,
    PhysAddr,
    UncorrectablePageError,
)
from repro.flash.device import StorageDevice
from repro.sim import Simulator

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=4,
                    pages_per_block=8, page_size=64, cards_per_node=1)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def device(sim):
    return StorageDevice(sim, geometry=GEO)


def _addr(rng):
    return PhysAddr(bus=rng.randrange(GEO.buses_per_card),
                    chip=rng.randrange(GEO.chips_per_bus),
                    block=rng.randrange(GEO.blocks_per_chip),
                    page=rng.randrange(GEO.pages_per_block))


class TestTagRenamingUnderContention:
    N_PORTS = 3
    WORKERS_PER_PORT = 6
    OPS_PER_WORKER = 8
    CAP = 4

    def _run(self, sim, device, policy=None, bad_pages=()):
        """Drive interleaved reads/writes/errors; record every outcome."""
        for addr in bad_pages:
            device.badblocks.mark_bad(addr)
        splitter = FlashSplitter(sim, device, policy=policy)
        ports = [splitter.add_port(max_in_flight=self.CAP)
                 for _ in range(self.N_PORTS)]
        reads = {port.tenant: [] for port in ports}
        max_in_flight = {port.tenant: 0 for port in ports}
        errors = []
        rng = random.Random(99)

        def observe(port):
            max_in_flight[port.tenant] = max(
                max_in_flight[port.tenant], port._slots.in_use)

        def worker(sim, port, ops):
            for op, addr in ops:
                try:
                    if op == "read":
                        data = yield sim.process(port.read_page(addr))
                        reads[port.tenant].append(data)
                    elif op == "write":
                        # A fresh erased block region; program may still
                        # hit an already-programmed page -> error path.
                        yield sim.process(port.write_page(addr, b"w"))
                    else:
                        yield sim.process(port.erase_block(addr))
                except Exception as exc:  # error paths must not leak slots
                    errors.append(type(exc).__name__)
                observe(port)

        def monitor(sim):
            # Sample port occupancy while traffic is in full flight.
            for _ in range(200):
                yield sim.timeout(500)
                for port in ports:
                    observe(port)

        for port in ports:
            for _ in range(self.WORKERS_PER_PORT):
                ops = [(rng.choice(["read", "read", "write", "erase"]),
                        _addr(rng))
                       for _ in range(self.OPS_PER_WORKER)]
                sim.process(worker(sim, port, ops))
        sim.process(monitor(sim))
        sim.run()
        return splitter, ports, reads, max_in_flight, errors

    def test_per_port_in_flight_caps_hold(self, sim, device):
        _, ports, _, max_in_flight, _ = self._run(sim, device)
        for port in ports:
            assert max_in_flight[port.tenant] <= self.CAP

    def test_error_paths_release_slots_and_tags(self, sim, device):
        bad = [PhysAddr(bus=0, chip=0, block=1, page=p) for p in range(8)]
        _, ports, _, max_in_flight, errors = self._run(
            sim, device, bad_pages=bad)
        # Some operations hit the bad block and raised.
        assert errors, "expected at least one error-path operation"
        # Yet nothing leaked: all slots returned...
        for port in ports:
            assert port._slots.in_use == 0
        # ...and the card's physical tag pool is whole again.
        assert device.cards[0]._tags.in_use == 0

    @pytest.mark.parametrize("policy", [None, "fifo", "rr", "priority",
                                        "edf"])
    def test_invariants_hold_under_every_policy(self, sim, device, policy):
        splitter, ports, reads, max_in_flight, _ = self._run(
            sim, device, policy=policy)
        for port in ports:
            assert max_in_flight[port.tenant] <= self.CAP
            assert port._slots.in_use == 0
            assert reads[port.tenant], "every port completed reads"
            assert all(isinstance(data, bytes)
                       and len(data) == GEO.page_size
                       for data in reads[port.tenant])
        assert device.cards[0]._tags.in_use == 0
        if splitter.admission is not None:
            assert splitter.admission.in_use == 0
