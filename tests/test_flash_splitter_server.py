"""Tests for the flash interface splitter and the Flash Server."""

import pytest

from repro.flash import (
    FlashGeometry,
    FlashServer,
    FlashSplitter,
    FlashTiming,
    PhysAddr,
)
from repro.flash.device import StorageDevice
from repro.sim import Simulator, Store, units

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=4,
                    pages_per_block=8, page_size=64, cards_per_node=1)
TIMING = FlashTiming()


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def device(sim):
    return StorageDevice(sim, geometry=GEO, timing=TIMING)


class TestSplitter:
    def test_ports_get_distinct_user_ids(self, sim, device):
        splitter = FlashSplitter(sim, device)
        p0 = splitter.add_port()
        p1 = splitter.add_port()
        assert splitter.ports == [p0, p1]
        # A port without a tenant label is named after its user id.
        assert (p0.tenant, p1.tenant) == ("user0", "user1")

    def test_fair_share_bounds_one_user(self, sim, device):
        splitter = FlashSplitter(sim, device)
        port = splitter.add_port(max_in_flight=1)
        done = []

        def reader(sim, bus):
            yield sim.process(port.read_page(PhysAddr(bus=bus)))
            done.append(sim.now)

        sim.process(reader(sim, 0))
        sim.process(reader(sim, 1))
        sim.run()
        # A one-command cap serializes this user even across buses.
        assert done[1] - done[0] >= TIMING.t_read_ns

    def test_two_users_share_concurrently(self, sim, device):
        splitter = FlashSplitter(sim, device)
        p0 = splitter.add_port(max_in_flight=1)
        p1 = splitter.add_port(max_in_flight=1)
        done = []

        def reader(sim, port, bus):
            yield sim.process(port.read_page(PhysAddr(bus=bus)))
            done.append(sim.now)

        sim.process(reader(sim, p0, 0))
        sim.process(reader(sim, p1, 1))
        sim.run()
        # Different users on different buses proceed in parallel.
        assert abs(done[1] - done[0]) < 2 * units.US

    def test_port_counters(self, sim, device, chip_ops):
        splitter = FlashSplitter(sim, device)
        port = splitter.add_port()

        def proc(sim):
            yield sim.process(port.write_page(PhysAddr(), b"v"))
            yield sim.process(port.read_page(PhysAddr()))

        sim.process(proc(sim))
        sim.run()
        assert chip_ops["read"] == 1
        assert chip_ops["program"] == 1


class TestFlashServerATU:
    def test_register_and_translate(self, sim, device):
        splitter = FlashSplitter(sim, device)
        server = FlashServer(sim, splitter.add_port())
        extents = [PhysAddr(page=p) for p in range(4)]
        handle = server.register_file("table.db", extents)
        assert server.lookup(handle.handle_id) is handle
        assert handle.translate(2) == extents[2]

    def test_unknown_handle_rejected(self, sim, device):
        splitter = FlashSplitter(sim, device)
        server = FlashServer(sim, splitter.add_port())
        with pytest.raises(KeyError):
            server.lookup(99)

    def test_offset_out_of_range(self, sim, device):
        splitter = FlashSplitter(sim, device)
        server = FlashServer(sim, splitter.add_port())
        handle = server.register_file("f", [PhysAddr()])
        with pytest.raises(IndexError):
            handle.translate(1)

    def test_invalid_queue_depth(self, sim, device):
        splitter = FlashSplitter(sim, device)
        with pytest.raises(ValueError):
            FlashServer(sim, splitter.add_port(), queue_depth=0)


class TestFlashServerStreaming:
    def _setup(self, sim, device, n_pages):
        splitter = FlashSplitter(sim, device)
        server = FlashServer(sim, splitter.add_port(), queue_depth=4)
        addrs = [GEO.striped(i) for i in range(n_pages)]
        for i, addr in enumerate(addrs):
            device.store.program(addr, f"page-{i:04d}".encode())
        return server, addrs

    def test_stream_delivers_in_request_order(self, sim, device):
        server, addrs = self._setup(sim, device, 12)
        out = Store(sim)
        received = []

        def consumer(sim):
            for _ in range(len(addrs)):
                data = yield out.get()
                received.append(data[:9].decode())

        sim.process(server.stream_pages(addrs, out))
        sim.process(consumer(sim))
        sim.run()
        assert received == [f"page-{i:04d}" for i in range(12)]

    def test_stream_pipelines_faster_than_serial(self, sim, device):
        server, addrs = self._setup(sim, device, 8)
        out = Store(sim)
        finished = []

        def consumer(sim):
            for _ in range(len(addrs)):
                yield out.get()
            finished.append(sim.now)

        sim.process(server.stream_pages(addrs, out))
        sim.process(consumer(sim))
        sim.run()
        serial_time = len(addrs) * TIMING.t_read_ns
        # Pipelined streaming must beat strictly serial chip reads.
        assert finished[0] < serial_time

    def test_stream_file_with_selected_offsets(self, sim, device):
        server, addrs = self._setup(sim, device, 6)
        handle = server.register_file("f", addrs)
        out = Store(sim)
        received = []

        def consumer(sim):
            for _ in range(3):
                data = yield out.get()
                received.append(data[:9].decode())

        sim.process(server.stream_file(handle.handle_id, out,
                                       offsets=[5, 0, 3]))
        sim.process(consumer(sim))
        sim.run()
        assert received == ["page-0005", "page-0000", "page-0003"]

    def test_stream_whole_file_default(self, sim, device):
        server, addrs = self._setup(sim, device, 5)
        handle = server.register_file("f", addrs)
        out = Store(sim)
        count = []

        def consumer(sim):
            for _ in range(5):
                yield out.get()
            count.append(sim.now)

        sim.process(server.stream_file(handle.handle_id, out))
        sim.process(consumer(sim))
        sim.run()
        assert count  # completed
