"""BlockAllocator: heap free lists and the sequential allocation mode.

Two contracts this PR added:

* the per-chip free lists are min-heaps keyed by erase count, and
  least-erased-first order must survive arbitrary interleavings of
  takes, frees and external erase recording (the property the old
  sort-per-take gave by brute force);
* ``mode="sequential"`` hands out write points whose
  :meth:`~repro.flash.FlashGeometry.striped_index` values are exactly
  consecutive — the inverse of :meth:`~repro.flash.FlashGeometry.
  striped` — falling back to the chip rotation when no block id is
  free on every chip.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import BadBlockTable, FlashGeometry, PhysAddr, WearTracker
from repro.ftl import ALLOCATION_MODES, BlockAllocator

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=4,
                    pages_per_block=4, page_size=64, cards_per_node=1)
N_UNITS = (GEO.cards_per_node * GEO.buses_per_card * GEO.chips_per_bus)


def make_allocator(mode="striped", geometry=GEO, wear=None):
    return BlockAllocator(geometry, BadBlockTable(),
                          wear or WearTracker(), node=0, mode=mode)


# ----------------------------------------------------------------------
# heap free lists
# ----------------------------------------------------------------------
class TestWearHeap:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            make_allocator(mode="zigzag")
        assert set(ALLOCATION_MODES) == {"striped", "sequential"}

    def test_take_prefers_least_erased_after_external_erases(self):
        wear = WearTracker()
        # Age block 0 of every chip *after* construction: the heap
        # entries go stale and must re-key lazily at take time.
        alloc = make_allocator(wear=wear)
        for unit in range(N_UNITS):
            addr = GEO.striped(unit)
            for _ in range(3):
                wear.record_erase(PhysAddr(node=0, card=addr.card,
                                           bus=addr.bus, chip=addr.chip,
                                           block=0))
        for _ in range(N_UNITS):
            taken = alloc.next_page()
            assert wear.erase_count(taken) == 0
            assert taken.block != 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(["take", "free", "erase"]),
                    min_size=1, max_size=60),
           st.randoms(use_true_random=False))
    def test_least_erased_first_under_interleaved_frees(self, script,
                                                        rng):
        """Whatever the interleaving, every taken block is least-erased
        (ties by id) among its chip's free blocks at take time."""
        wear = WearTracker()
        alloc = make_allocator(wear=wear)
        consumed = {}  # block_addr -> pages taken from it
        freeable = []  # fully-consumed blocks we may free back

        def erase_count(key, block):
            node, card, bus, chip = key
            return wear.erase_count(PhysAddr(
                node=node, card=card, bus=bus, chip=chip, block=block))

        for action in script:
            if action == "take":
                free_before = {
                    key: sorted(blocks)
                    for key, blocks in alloc._free.items() if blocks}
                addr = alloc.next_page()
                if addr is None:
                    continue
                key = (addr.node, addr.card, addr.bus, addr.chip)
                if addr.block in free_before.get(key, ()):
                    # A fresh block was opened: it must be minimal by
                    # (erase count, id) among the chip's free blocks.
                    best = min(free_before[key],
                               key=lambda b: (erase_count(key, b), b))
                    assert addr.block == best
                block = addr.block_addr()
                consumed[block] = consumed.get(block, 0) + 1
                if consumed[block] == GEO.pages_per_block:
                    freeable.append(block)
            elif action == "free" and freeable:
                block = freeable.pop(rng.randrange(len(freeable)))
                del consumed[block]
                wear.record_erase(block)
                alloc.release_block(block)
            elif action == "erase" and freeable:
                # External wear on an owned block (GC aging it before
                # the free) — must reorder future takes.
                wear.record_erase(
                    freeable[rng.randrange(len(freeable))])

    def test_double_release_still_rejected(self):
        alloc = make_allocator()
        addrs = [alloc.next_page() for _ in range(GEO.pages_per_node)]
        alloc.release_block(addrs[0])
        with pytest.raises(ValueError):
            alloc.release_block(addrs[0])

    def test_retire_block_removes_from_circulation(self):
        alloc = make_allocator()
        victim = PhysAddr(node=0, block=2)
        alloc.retire_block(victim)
        seen = set()
        while True:
            addr = alloc.next_page()
            if addr is None:
                break
            seen.add((addr.card, addr.bus, addr.chip, addr.block))
        assert (0, 0, 0, 2) not in seen


# ----------------------------------------------------------------------
# sequential mode
# ----------------------------------------------------------------------
class TestSequentialMode:
    def test_striped_indices_are_consecutive(self):
        alloc = make_allocator(mode="sequential")
        addrs = [alloc.next_page() for _ in range(3 * N_UNITS)]
        indices = [GEO.striped_index(a) for a in addrs]
        base = indices[0]
        assert indices == list(range(base, base + len(indices)))
        # And they really are the inverse of striped().
        for index, addr in zip(indices, addrs):
            assert GEO.striped(index) == addr

    def test_full_device_allocates_every_page(self):
        alloc = make_allocator(mode="sequential")
        seen = set()
        for _ in range(GEO.pages_per_node):
            addr = alloc.next_page()
            assert addr is not None
            seen.add(addr)
        assert len(seen) == GEO.pages_per_node
        assert alloc.next_page() is None

    def test_bad_block_excluded_and_rotation_fallback_used(self):
        badblocks = BadBlockTable()
        # Block 1 bad on one chip: no stripe group can use block 1.
        badblocks.mark_bad(PhysAddr(node=0, bus=1, chip=0, block=1))
        alloc = BlockAllocator(GEO, badblocks, WearTracker(), node=0,
                               mode="sequential")
        addrs = []
        while True:
            addr = alloc.next_page()
            if addr is None:
                break
            addrs.append(addr)
        # The bad block never appears, everything else does.
        assert all(not (a.bus == 1 and a.chip == 0 and a.block == 1)
                   for a in addrs)
        assert len(addrs) == GEO.pages_per_node - GEO.pages_per_block
        # Stripe groups formed from the blocks common to every chip
        # (3 of 4); the leftover good block-1 pages came from the
        # rotation fallback.
        groups = [a for a in addrs if a.block != 1]
        indices = [GEO.striped_index(a) for a in groups]
        assert indices[:3 * N_UNITS] == sorted(indices[:3 * N_UNITS])

    def test_group_closes_on_last_live_page_before_retired_tail(self):
        alloc = make_allocator(mode="sequential")
        # Retire unit 3 of 4, the last in chip order: a stripe group is
        # then 3 units x 4 pages.
        alloc.retire_chip(card=0, bus=1, chip=1)
        live = [GEO.striped(unit)[:4] for unit in range(3)]
        run = [alloc.next_page() for _ in range(17)]
        assert run[:12] == [PhysAddr(*live[unit], 0, page)
                            for page in range(4) for unit in range(3)]
        # Page 13 opens block 1 on every live chip, and the walk goes on
        # in striped order through that group.
        assert run[12:] == [PhysAddr(*live[0], 1, 0),
                            PhysAddr(*live[1], 1, 0),
                            PhysAddr(*live[2], 1, 0),
                            PhysAddr(*live[0], 1, 1),
                            PhysAddr(*live[1], 1, 1)]

    def test_sequential_wear_prefers_cold_stripe_group(self):
        wear = WearTracker()
        for unit in range(N_UNITS):
            addr = GEO.striped(unit)
            wear.record_erase(PhysAddr(node=0, card=addr.card,
                                       bus=addr.bus, chip=addr.chip,
                                       block=0))
        alloc = make_allocator(mode="sequential", wear=wear)
        first = alloc.next_page()
        # Block 0 is the most worn everywhere: the group opens on a
        # colder block id.
        assert first.block != 0
