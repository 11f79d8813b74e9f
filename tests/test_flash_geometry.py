"""Tests for flash geometry and physical addressing."""

import pytest
from hypothesis import given, strategies as st

from repro.flash import DEFAULT_GEOMETRY, FlashGeometry, PhysAddr


@pytest.fixture
def geo():
    return FlashGeometry(buses_per_card=2, chips_per_bus=2,
                         blocks_per_chip=4, pages_per_block=4,
                         page_size=64, cards_per_node=2)


class TestCapacities:
    def test_paper_default_is_512gb_per_card(self):
        # 8 buses x 8 chips x 4096 blocks x 256 pages x 8KB = 512 GiB-ish.
        assert DEFAULT_GEOMETRY.card_bytes == 8 * 8 * 4096 * 256 * 8192

    def test_paper_default_node_is_1tb(self):
        assert DEFAULT_GEOMETRY.node_bytes == 2 * DEFAULT_GEOMETRY.card_bytes

    def test_small_counts(self, geo):
        assert geo.pages_per_chip == 16
        assert geo.pages_per_bus == 32
        assert geo.pages_per_card == 64
        assert geo.pages_per_node == 128

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            FlashGeometry(buses_per_card=0)


class TestPhysAddr:
    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            PhysAddr(bus=-1)

    def test_block_addr_zeroes_page(self):
        addr = PhysAddr(node=1, card=1, bus=2, chip=3, block=7, page=9)
        blk = addr.block_addr()
        assert blk.page == 0
        assert blk.block == 7
        assert blk[:4] == addr[:4]

    def test_keys(self):
        addr = PhysAddr(node=1, card=0, bus=2, chip=3, block=4, page=5)
        # Readers slice the tuple: [:4] is the chip, [:5] the block.
        assert addr[:4] == (1, 0, 2, 3)
        assert addr[:5] == (1, 0, 2, 3, 4)

    def test_ordering_and_hashing(self):
        a = PhysAddr(block=1)
        b = PhysAddr(block=2)
        assert a < b
        assert len({a, b, PhysAddr(block=1)}) == 2

    def test_str_is_readable(self):
        assert str(PhysAddr(node=1, card=0, bus=2, chip=3, block=4,
                            page=5)) == "n1/c0/b2/ch3/blk4/p5"


def _linear(geo, addr):
    """The mixed-radix (card, bus, chip, block, page) number, page
    fastest: the layout :meth:`FlashGeometry.from_linear` decodes."""
    return ((((addr.card * geo.buses_per_card + addr.bus)
              * geo.chips_per_bus + addr.chip)
             * geo.blocks_per_chip + addr.block)
            * geo.pages_per_block + addr.page)


class TestLinearMapping:
    def test_roundtrip_all_pages(self, geo):
        seen = set()
        for linear in range(geo.pages_per_node):
            addr = geo.from_linear(linear, node=3)
            assert addr.node == 3
            geo.validate(addr)
            assert _linear(geo, addr) == linear
            seen.add((addr.card, addr.bus, addr.chip, addr.block, addr.page))
        assert len(seen) == geo.pages_per_node

    def test_linear_out_of_range(self, geo):
        with pytest.raises(ValueError):
            geo.from_linear(geo.pages_per_node)
        with pytest.raises(ValueError):
            geo.from_linear(-1)

    def test_validate_rejects_out_of_geometry(self, geo):
        with pytest.raises(ValueError):
            geo.validate(PhysAddr(bus=geo.buses_per_card))
        with pytest.raises(ValueError):
            geo.validate(PhysAddr(page=geo.pages_per_block))

    @given(st.integers(min_value=0))
    def test_roundtrip_property_default_geometry(self, linear):
        geo = DEFAULT_GEOMETRY
        linear %= geo.pages_per_node
        assert _linear(geo, geo.from_linear(linear)) == linear


class TestStriping:
    def test_striped_spreads_over_chips_first(self, geo):
        # First (cards*buses*chips) indices must each hit a distinct chip.
        n_units = geo.cards_per_node * geo.buses_per_card * geo.chips_per_bus
        chips = {geo.striped(i)[:4] for i in range(n_units)}
        assert len(chips) == n_units

    def test_striped_covers_all_pages(self, geo):
        addrs = {geo.striped(i) for i in range(geo.pages_per_node)}
        assert len(addrs) == geo.pages_per_node

    def test_striped_same_unit_advances_page(self, geo):
        n_units = geo.cards_per_node * geo.buses_per_card * geo.chips_per_bus
        first = geo.striped(0)
        second = geo.striped(n_units)
        assert first[:4] == second[:4]
        assert (second.block, second.page) != (first.block, first.page)

    def test_striped_out_of_range(self, geo):
        with pytest.raises(ValueError):
            geo.striped(geo.pages_per_node)

    def test_striped_index_inverts_striped(self, geo):
        assert all(geo.striped_index(geo.striped(i)) == i
                   for i in range(geo.pages_per_node))

    @given(st.integers(0, DEFAULT_GEOMETRY.pages_per_node - 1))
    def test_striped_index_property_default_geometry(self, index):
        assert DEFAULT_GEOMETRY.striped_index(
            DEFAULT_GEOMETRY.striped(index)) == index

    def test_striped_index_validates(self, geo):
        with pytest.raises(ValueError):
            geo.striped_index(PhysAddr(bus=geo.buses_per_card))
