"""Property test: ``PageMap``'s GC victim index against a full scan.

Random ``map_page``/``unmap``/``seal``/``unseal``/``drop_block``
sequences over a bare page map; after every step the lazy-deletion heap
must name exactly the block a brute-force ``min((valid_count, key))``
over the sealed set names, and must stay within its size bound.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import FlashGeometry, PhysAddr
from repro.ftl import PageMap

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=4,
                    pages_per_block=4, page_size=64, cards_per_node=1)

#: Few blocks and pages, so equal-validity ties are common.
BLOCKS = [PhysAddr(bus=bus, chip=chip, block=block)
          for bus in range(2) for chip in range(2) for block in range(2)]


def key_of(addr):
    return (addr.node, addr.card, addr.bus, addr.chip, addr.block)


def scan_min(pmap):
    """What the index must return: the brute-force greedy pick."""
    best = min(((pmap.valid_count(addr), key_of(addr)) for addr in BLOCKS
                if key_of(addr) in pmap.sealed), default=None)
    return None if best is None else best[1]


def heap_bound(pmap):
    return 4 * len(pmap.sealed) + 64


def page(block, number):
    base = BLOCKS[block]
    return PhysAddr(bus=base.bus, chip=base.chip, block=base.block,
                    page=number)


block_index = st.integers(0, len(BLOCKS) - 1)
OPS = st.one_of(
    st.tuples(st.just("map"), st.integers(0, 15), block_index,
              st.integers(0, GEO.pages_per_block - 1)),
    st.tuples(st.just("unmap"), st.integers(0, 15)),
    st.tuples(st.just("seal"), block_index),
    st.tuples(st.just("unseal"), block_index),
    st.tuples(st.just("drop"), block_index),
)


def apply(pmap, op):
    kind = op[0]
    if kind == "map":
        _, lpn, block, number = op
        addr = page(block, number)
        stale = pmap.reverse(addr)
        if stale is not None:
            # One LPN per physical page, as the FTL guarantees.
            pmap.unmap(stale)
        pmap.map_page(lpn, addr)
    elif kind == "unmap":
        pmap.unmap(op[1])
    elif kind == "seal":
        pmap.seal(key_of(BLOCKS[op[1]]))
    elif kind == "unseal":
        pmap.unseal(key_of(BLOCKS[op[1]]))
    else:
        addr = BLOCKS[op[1]]
        if pmap.valid_count(addr):
            with pytest.raises(ValueError):
                pmap.drop_block(addr)
        else:
            pmap.drop_block(addr)


@settings(max_examples=200, deadline=None)
@given(st.lists(OPS, max_size=300))
def test_min_victim_matches_brute_force_scan(ops):
    pmap = PageMap(GEO)
    for op in ops:
        apply(pmap, op)
        assert len(pmap._victims) <= heap_bound(pmap)
        assert pmap.min_victim() == scan_min(pmap), op


def test_churn_and_unseal_keep_the_heap_bounded():
    pmap = PageMap(GEO)
    addr = page(0, 0)
    pmap.seal(key_of(BLOCKS[0]))
    pmap.seal(key_of(BLOCKS[1]))
    lpn = 0
    while len(pmap._victims) < heap_bound(pmap):
        pmap.map_page(lpn, addr)
        pmap.unmap(lpn)
        lpn += 1
    for lpn in range(lpn, lpn + 500):
        pmap.map_page(lpn, addr)
        pmap.unmap(lpn)
        assert len(pmap._victims) <= heap_bound(pmap) == 72
    # Unsealing shrinks the bound: the heap must shrink with it.
    while len(pmap._victims) < heap_bound(pmap):
        pmap.map_page(0, addr)
        pmap.unmap(0)
    pmap.unseal(key_of(BLOCKS[1]))
    assert len(pmap._victims) <= heap_bound(pmap) == 68
    assert pmap.min_victim() == key_of(BLOCKS[0])


def test_fully_valid_block_stays_eligible_after_a_peek():
    pmap = PageMap(GEO)
    for number in range(GEO.pages_per_block):
        pmap.map_page(number, page(3, number))
    pmap.seal(key_of(BLOCKS[3]))
    assert pmap.min_victim() == key_of(BLOCKS[3])
    assert pmap.min_victim() == key_of(BLOCKS[3])
    pmap.unmap(2)
    assert pmap.min_victim() == key_of(BLOCKS[3])
    pmap.unseal(key_of(BLOCKS[3]))
    assert pmap.min_victim() is None
