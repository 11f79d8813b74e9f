"""Tests for the page store, wear tracker, and bad block table."""

import pytest

from repro.flash import BadBlockTable, FlashGeometry, PhysAddr, WearTracker
from repro.flash.store import PageStore


@pytest.fixture
def geo():
    return FlashGeometry(buses_per_card=2, chips_per_bus=2,
                         blocks_per_chip=4, pages_per_block=4,
                         page_size=64, cards_per_node=1)


class TestPageStore:
    def test_unprogrammed_reads_erased_pattern(self, geo):
        store = PageStore(geo)
        data, parity = store.read(PhysAddr())
        assert data == b"\xff" * 64
        assert len(parity) == 8

    def test_program_and_read_back(self, geo):
        store = PageStore(geo)
        addr = PhysAddr(bus=1, chip=1, block=2, page=3)
        store.program(addr, b"hello")
        data = store.read_data(addr)
        assert data.startswith(b"hello")
        assert data[5:] == b"\xff" * 59

    def test_oversized_data_rejected(self, geo):
        store = PageStore(geo)
        with pytest.raises(ValueError):
            store.program(PhysAddr(), b"x" * 65)

    def test_erase_block_scoped(self, geo):
        store = PageStore(geo)
        a0 = PhysAddr(block=0, page=0)
        a1 = PhysAddr(block=0, page=1)
        other = PhysAddr(block=1, page=0)
        for a in (a0, a1, other):
            store.program(a, b"data")
        dropped = store.erase_block(a0)
        assert dropped == 2
        assert store.read_data(a0) == b"\xff" * 64
        assert store.read_data(a1) == b"\xff" * 64
        assert store.read_data(other).startswith(b"data")

    def test_erase_empty_block(self, geo):
        store = PageStore(geo)
        assert store.erase_block(PhysAddr(block=3)) == 0

    def test_parity_matches_data(self, geo):
        from repro.flash import ecc
        store = PageStore(geo)
        addr = PhysAddr()
        store.program(addr, bytes(range(64)))
        data, parity = store.read(addr)
        decoded, n = ecc.decode_page(data, parity)
        assert decoded == data and n == 0

    def test_reprogram_same_page_does_not_double_count(self, geo):
        store = PageStore(geo)
        addr = PhysAddr()
        store.program(addr, b"a")
        store.program(addr, b"b")
        assert store.read_data(addr).startswith(b"b")
        assert store.erase_block(addr) == 1


class TestWearTracker:
    def test_counts_accumulate(self):
        wear = WearTracker(endurance=10)
        addr = PhysAddr(block=5)
        assert wear.erase_count(addr) == 0
        wear.record_erase(addr)
        wear.record_erase(addr)
        assert wear.erase_count(addr) == 2
        assert wear.wear_fraction(addr) == pytest.approx(0.2)

    def test_page_within_block_shares_count(self):
        wear = WearTracker()
        wear.record_erase(PhysAddr(block=5, page=0))
        assert wear.erase_count(PhysAddr(block=5, page=3)) == 1

    def test_aggregates(self):
        wear = WearTracker()
        wear.record_erase(PhysAddr(block=0))
        wear.record_erase(PhysAddr(block=0))
        wear.record_erase(PhysAddr(block=1))
        assert wear.total_erases == 3
        assert wear.max_erase_count == 2

    def test_invalid_endurance(self):
        with pytest.raises(ValueError):
            WearTracker(endurance=0)


class TestBadBlockTable:
    def test_no_factory_bad_by_default(self):
        table = BadBlockTable()
        assert not any(table.is_bad(PhysAddr(block=b)) for b in range(4))

    def test_grown_bad_marking(self):
        table = BadBlockTable()
        addr = PhysAddr(block=2, page=3)
        table.mark_bad(addr)
        assert table.is_bad(PhysAddr(block=2, page=0))
        assert table.grown_bad_count == 1
        assert not table.is_bad(PhysAddr(block=3))
