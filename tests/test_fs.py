"""Tests for the RFS-style log-structured file system."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.flash import FlashGeometry, FlashTiming
from repro.flash.device import StorageDevice
from repro.fs import RFS
from repro.sim import Simulator

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=8,
                    pages_per_block=4, page_size=64, cards_per_node=1)
FAST = FlashTiming(t_read_ns=1000, t_prog_ns=2000, t_erase_ns=5000,
                   bus_bytes_per_ns=1.0, aurora_bytes_per_ns=3.3,
                   aurora_latency_ns=10, cmd_overhead_ns=10)


def make_fs():
    sim = Simulator()
    device = StorageDevice(sim, geometry=GEO, timing=FAST)
    return sim, RFS(sim, device)


def stored(fs, name):
    """A file's contents as its physical extents hold them."""
    data = b"".join(fs.device.store.read_data(addr)
                    for addr in fs.physical_extents(name))
    return data[:fs.stat(name).size]


class TestNamespace:
    def test_create_and_stat(self):
        sim, fs = make_fs()
        fs.create("a.txt")
        assert fs.stat("a.txt").size == 0

    def test_duplicate_create_rejected(self):
        sim, fs = make_fs()
        fs.create("a")
        with pytest.raises(FileExistsError):
            fs.create("a")

    def test_missing_file_rejected(self):
        sim, fs = make_fs()
        with pytest.raises(FileNotFoundError):
            fs.stat("ghost")


class TestDataPath:
    def test_write_read_exact_roundtrip(self):
        sim, fs = make_fs()
        payload = b"The quick brown fox jumps over the lazy dog" * 3
        sim.run_process(fs.write_file("fox", payload))
        assert stored(fs, "fox") == payload
        assert fs.stat("fox").size == len(payload)

    def test_multi_page_file_layout(self):
        sim, fs = make_fs()
        payload = bytes(range(256))  # 4 pages of 64
        sim.run_process(fs.write_file("f", payload))
        assert stored(fs, "f") == payload
        assert fs.stat("f").num_pages == 4

    def test_overwrite_replaces_contents(self):
        sim, fs = make_fs()

        def proc(sim):
            yield from fs.write_file("f", b"old content spanning" * 10)
            yield from fs.write_file("f", b"new")

        sim.run_process(proc(sim))
        assert stored(fs, "f") == b"new"

    def test_read_single_page(self):
        sim, fs = make_fs()

        def proc(sim):
            yield from fs.write_file("f", b"0" * 64 + b"1" * 64)
            page = yield from fs.core.read(fs.stat("f").lpns[1],
                                           fs.device.read_page)
            return page

        assert sim.run_process(proc(sim)) == b"1" * 64


class TestPhysicalExtents:
    def test_extents_match_file_order(self):
        sim, fs = make_fs()
        payload = bytes(256)

        def proc(sim):
            yield from fs.write_file("f", payload)

        sim.run_process(proc(sim))
        extents = fs.physical_extents("f")
        assert len(extents) == 4
        # Extents stripe across distinct chips (parallelism exposure).
        assert len({a[:4] for a in extents}) == 4

    def test_extents_track_gc_relocation(self):
        """The Section 4 contract: extents re-queried after GC still point
        at the live data."""
        sim, fs = make_fs()

        def proc(sim):
            yield from fs.write_file("keep", b"K" * 64)
            # Churn to force GC to relocate things.
            for i in range(3 * GEO.pages_per_node):
                yield from fs.write_file("churn", bytes([i % 255]) * 64)

        sim.run_process(proc(sim))
        assert len(fs.core.gc_victims) > 0
        extents = fs.physical_extents("keep")

        def verify(sim):
            result = yield sim.process(fs.device.read_page(extents[0]))
            return result.data

        assert sim.run_process(verify(sim)).startswith(b"K" * 64)


class TestPropertyRoundtrip:
    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=0, max_size=640))
    def test_any_payload_roundtrips(self, payload):
        sim, fs = make_fs()
        sim.run_process(fs.write_file("p", payload))
        assert stored(fs, "p") == payload

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=64), min_size=1,
                    max_size=8))
    def test_multiple_files_stay_isolated(self, payloads):
        sim, fs = make_fs()

        def proc(sim):
            for i, payload in enumerate(payloads):
                yield from fs.write_file(f"f{i}", payload)

        sim.run_process(proc(sim))
        assert [stored(fs, f"f{i}") for i in range(len(payloads))] \
            == payloads
