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


class TestNamespace:
    def test_create_and_stat(self):
        sim, fs = make_fs()
        fs.create("a.txt")
        assert fs.exists("a.txt")
        assert fs.stat("a.txt").size == 0
        assert fs.list_files() == ["a.txt"]

    def test_duplicate_create_rejected(self):
        sim, fs = make_fs()
        fs.create("a")
        with pytest.raises(FileExistsError):
            fs.create("a")

    def test_missing_file_rejected(self):
        sim, fs = make_fs()
        with pytest.raises(FileNotFoundError):
            fs.stat("ghost")

    def test_delete_removes(self):
        sim, fs = make_fs()

        def proc(sim):
            yield from fs.write_file("tmp", b"bytes")
            yield from fs.delete("tmp")

        sim.run_process(proc(sim))
        assert not fs.exists("tmp")


class TestDataPath:
    def test_write_read_exact_roundtrip(self):
        sim, fs = make_fs()
        payload = b"The quick brown fox jumps over the lazy dog" * 3

        def proc(sim):
            yield from fs.write_file("fox", payload)
            data = yield from fs.read_file("fox")
            return data

        assert sim.run_process(proc(sim)) == payload
        assert fs.stat("fox").size == len(payload)

    def test_multi_page_file_layout(self):
        sim, fs = make_fs()
        payload = bytes(range(256))  # 4 pages of 64

        def proc(sim):
            yield from fs.write_file("f", payload)
            return (yield from fs.read_file("f"))

        assert sim.run_process(proc(sim)) == payload
        assert fs.stat("f").num_pages == 4

    def test_overwrite_replaces_contents(self):
        sim, fs = make_fs()

        def proc(sim):
            yield from fs.write_file("f", b"old content spanning" * 10)
            yield from fs.write_file("f", b"new")
            return (yield from fs.read_file("f"))

        assert sim.run_process(proc(sim)) == b"new"

    def test_append_page(self):
        sim, fs = make_fs()

        def proc(sim):
            fs.create("log")
            yield from fs.append_page("log", b"A" * 64)
            yield from fs.append_page("log", b"B" * 64)
            return (yield from fs.read_file("log"))

        data = sim.run_process(proc(sim))
        assert data == b"A" * 64 + b"B" * 64

    def test_append_oversized_rejected(self):
        sim, fs = make_fs()
        fs.create("f")
        with pytest.raises(ValueError):
            sim.run_process(fs.append_page("f", b"x" * 65))

    def test_read_single_page(self):
        sim, fs = make_fs()

        def proc(sim):
            yield from fs.write_file("f", b"0" * 64 + b"1" * 64)
            page = yield from fs.read_page("f", 1)
            return page

        assert sim.run_process(proc(sim)) == b"1" * 64

    def test_read_page_out_of_range(self):
        sim, fs = make_fs()

        def proc(sim):
            yield from fs.write_file("f", b"x")
            yield from fs.read_page("f", 5)

        with pytest.raises(IndexError):
            sim.run_process(proc(sim))


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
        assert len({a.chip_key() for a in extents}) == 4

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
        assert fs.core.gc_runs > 0
        extents = fs.physical_extents("keep")

        def verify(sim):
            result = yield sim.process(fs.device.read_page(extents[0]))
            return result.data

        assert sim.run_process(verify(sim)).startswith(b"K" * 64)

    def test_deleted_files_free_space_for_new_ones(self):
        sim, fs = make_fs()
        pages = GEO.pages_per_node

        def proc(sim):
            # Fill ~half, delete, refill repeatedly: must never die.
            for round_ in range(6):
                name = f"bulk{round_}"
                yield from fs.write_file(name, bytes(64) * (pages // 4))
                yield from fs.delete(name)

        sim.run_process(proc(sim))


class TestPropertyRoundtrip:
    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=0, max_size=640))
    def test_any_payload_roundtrips(self, payload):
        sim, fs = make_fs()

        def proc(sim):
            yield from fs.write_file("p", payload)
            return (yield from fs.read_file("p"))

        assert sim.run_process(proc(sim)) == payload

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=64), min_size=1,
                    max_size=8))
    def test_multiple_files_stay_isolated(self, payloads):
        sim, fs = make_fs()

        def proc(sim):
            for i, payload in enumerate(payloads):
                yield from fs.write_file(f"f{i}", payload)
            results = []
            for i in range(len(payloads)):
                data = yield from fs.read_file(f"f{i}")
                results.append(data)
            return results

        assert sim.run_process(proc(sim)) == payloads
