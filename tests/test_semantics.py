"""Cross-cutting semantic tests: the paper's subtler contracts."""

import pytest

from repro.core import BlueDBMNode
from repro.flash import FlashGeometry, FlashTiming, PhysAddr
from repro.network import StorageNetwork, ring
from repro.sim import Simulator, Store

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=8,
                    pages_per_block=4, page_size=256, cards_per_node=1)
FAST = FlashTiming(t_read_ns=500, t_prog_ns=1000, t_erase_ns=2000,
                   bus_bytes_per_ns=1.0, aurora_bytes_per_ns=3.3,
                   aurora_latency_ns=5, cmd_overhead_ns=5)


class TestFigure6Ordering:
    """Figure 6: packets from the same endpoint to a destination keep
    FIFO order even while other endpoints interleave on other routes."""

    def test_interleaved_endpoints_each_stay_fifo(self):
        sim = Simulator()
        net = StorageNetwork(sim, ring(6, lanes=1), n_endpoints=3)
        received = {ep: [] for ep in range(3)}

        def sender(sim, ep):
            for i in range(15):
                yield sim.process(net.endpoint(0, ep).send(3, i, 64))

        def receiver(sim, ep):
            for _ in range(15):
                message = yield sim.process(net.endpoint(3, ep).receive())
                received[ep].append(message.payload)

        for ep in range(3):
            sim.process(sender(sim, ep))
            sim.process(receiver(sim, ep))
        sim.run()
        for ep in range(3):
            assert received[ep] == list(range(15)), f"endpoint {ep}"

    def test_multiple_sources_to_one_endpoint(self):
        """Different sources may interleave, but each source's messages
        arrive in its own send order."""
        sim = Simulator()
        net = StorageNetwork(sim, ring(5), n_endpoints=1)
        arrivals = []

        def sender(sim, src):
            for i in range(10):
                yield sim.process(
                    net.endpoint(src, 0).send(0, (src, i), 64))

        def receiver(sim):
            for _ in range(20):
                message = yield sim.process(net.endpoint(0, 0).receive())
                arrivals.append(message.payload)

        sim.process(sender(sim, 1))
        sim.process(sender(sim, 3))
        sim.process(receiver(sim))
        sim.run()
        for src in (1, 3):
            seq = [i for s, i in arrivals if s == src]
            assert seq == list(range(10))


class TestStaleExtentsAfterGC:
    """Section 4's contract is that applications *query* the file system
    for physical locations per job: extents captured before garbage
    collection may go stale; re-querying always yields live locations."""

    def _churned_node(self):
        sim = Simulator()
        node = BlueDBMNode(sim, geometry=GEO, flash_timing=FAST)

        def setup(sim):
            yield from node.fs.write_file("keep", b"K" * 256)
            for i in range(4 * GEO.pages_per_node):
                yield from node.fs.write_file("churn",
                                              bytes([i % 251]) * 256)

        before = None

        def capture(sim):
            nonlocal before
            yield from node.fs.write_file("keep", b"K" * 256)
            before = node.fs.physical_extents("keep")
            for i in range(4 * GEO.pages_per_node):
                yield from node.fs.write_file("churn",
                                              bytes([i % 251]) * 256)

        sim.run_process(capture(sim))
        return sim, node, before

    def test_requeried_extents_read_live_data(self):
        sim, node, before = self._churned_node()
        assert len(node.fs.core.gc_victims) > 0
        after = node.fs.physical_extents("keep")

        def read(sim, addr):
            result = yield sim.process(node.isp_read(addr))
            return result.data

        assert sim.run_process(read(sim, after[0])).startswith(b"K" * 64)

    def test_stale_extents_may_be_relocated(self):
        sim, node, before = self._churned_node()
        after = node.fs.physical_extents("keep")
        # GC reclaimed blocks during the churn (greedy victims are the
        # fully-invalid churn blocks, so the kept file may or may not
        # have moved) — either way, the re-queried address is the
        # authoritative one and has the same shape.
        assert len(node.fs.core.gc_victims) > 0
        assert len(after) == len(before)


class TestNandDisciplineThroughStack:
    def test_fs_never_violates_program_order(self):
        """The whole stack (FS -> allocator -> controller -> chip) must
        respect NAND's program-once-per-erase rule; a violation raises
        ProgramError and would crash this workload."""
        sim = Simulator()
        node = BlueDBMNode(sim, geometry=GEO, flash_timing=FAST)

        def hammer(sim):
            for round_ in range(3):
                for f in range(6):
                    yield from node.fs.write_file(
                        f"f{f}", bytes([round_ * 7 + f]) * 256)
                yield from node.fs.write_file("f0", b"reborn" * 10)

        sim.run_process(hammer(sim))

        def verify(sim):
            data = yield from node.fs.core.read(
                node.fs.stat("f0").lpns[0], node.fs.device.read_page)
            return data

        assert sim.run_process(verify(sim))[:60] == b"reborn" * 10

    def test_flash_server_streams_survive_concurrent_writes(self):
        """Reading one file while another is being written: streams see
        consistent data (pages are immutable once programmed)."""
        sim = Simulator()
        node = BlueDBMNode(sim, geometry=GEO, flash_timing=FAST)

        def setup(sim):
            yield from node.fs.write_file("stable", b"S" * 512)

        sim.run_process(setup(sim))
        extents = node.fs.physical_extents("stable")
        handle = node.flash_server.register_file("stable", extents)
        got = []

        def reader(sim):
            out = Store(sim)
            sim.process(node.flash_server.stream_file(
                handle.handle_id, out))
            for _ in range(len(extents)):
                result = yield out.get()
                got.append(result.data)

        def writer(sim):
            for i in range(8):
                yield from node.fs.write_file(f"noise{i}", bytes(200))

        sim.process(reader(sim))
        sim.process(writer(sim))
        sim.run()
        assert all(d == b"S" * 256 for d in got)
