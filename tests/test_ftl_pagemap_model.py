"""Property test: ``PageMap`` against a dict model of the mapping.

The page map keeps L2P as an array of integer physical page numbers
and builds each :class:`~repro.flash.PhysAddr` it hands out from a
per-block key.  Random interleavings of ``map_page``, ``map_group``,
``unmap`` and ``drop_block`` run against a plain ``{lpn: addr}`` dict;
after every step ``lookup`` must agree with the dict, ``reverse`` must
invert ``lookup`` on every mapped LPN (the map/reverse bijection),
``valid_count`` and ``mapped_count`` must equal the counts the dict
implies, and ``map_page``/``unmap`` must return the address the dict
held.  The map is built on node 1, so the node travels through the
per-block keys too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import FlashGeometry, PhysAddr
from repro.ftl import PageMap

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=4,
                    pages_per_block=4, page_size=64, cards_per_node=2)
NODE = 1
BLOCKS = [(NODE, card, bus, chip, block) for card in range(2)
          for bus in range(2) for chip in range(2) for block in range(4)]
LPNS = 48

block_index = st.integers(0, len(BLOCKS) - 1)
OPS = st.one_of(
    st.tuples(st.just("map"), st.integers(0, LPNS - 1), block_index,
              st.integers(0, GEO.pages_per_block - 1)),
    st.tuples(st.just("group"), st.integers(0, LPNS - 1),
              st.lists(block_index, min_size=1, max_size=4, unique=True)),
    st.tuples(st.just("unmap"), st.integers(-1, LPNS + 4)),
    st.tuples(st.just("drop"), block_index),
)


def valid_in(model, key):
    return sum(1 for addr in model.values() if addr[:5] == key)


def apply(pmap, model, op):
    kind = op[0]
    if kind == "map":
        _, lpn, block, page = op
        addr = PhysAddr(*BLOCKS[block], page)
        if pmap.reverse(addr) is not None:
            return  # one LPN per physical page, as the FTL guarantees
        assert pmap.map_page(lpn, addr) == model.get(lpn)
        model[lpn] = addr
    elif kind == "group":
        _, start, blocks = op
        keys = [BLOCKS[block] for block in blocks]
        if any(valid_in(model, key) for key in keys):
            return  # a group takes fresh (erased) blocks only
        pmap.map_group(start, keys)
        for page in range(GEO.pages_per_block):
            for unit, key in enumerate(keys):
                model[start + page * len(keys) + unit] = PhysAddr(*key, page)
    elif kind == "unmap":
        assert pmap.unmap(op[1]) == model.pop(op[1], None)
    else:
        addr = PhysAddr(*BLOCKS[op[1]])
        if valid_in(model, BLOCKS[op[1]]):
            with pytest.raises(ValueError):
                pmap.drop_block(addr)
        else:
            pmap.drop_block(addr)


def check(pmap, model):
    for lpn in range(-1, LPNS + 4 * GEO.pages_per_block + 4):
        addr = pmap.lookup(lpn)
        assert addr == model.get(lpn), lpn
        if addr is not None:
            assert type(addr) is PhysAddr
            assert pmap.reverse(addr) == lpn
    for key in BLOCKS:
        assert pmap.valid_count(PhysAddr(*key)) == valid_in(model, key)
    assert pmap.mapped_count == len(model)


@settings(max_examples=200, deadline=None)
@given(st.lists(OPS, max_size=60))
def test_page_map_matches_dict_model(ops):
    pmap, model = PageMap(GEO, node=NODE), {}
    for op in ops:
        apply(pmap, model, op)
        check(pmap, model)

