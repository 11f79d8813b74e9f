"""Bulk prefill against a page-at-a-time reference.

``FtlCore.prefill`` maps whole stripe groups a block at a time.  The
reference here maps every page the allocator hands out with the
run-time ``map_page`` + ``program_done``, one at a time; after the same
runs, both cores must agree on every lookup, every reverse lookup,
every block's valid count, the sealed set, the GC victim and the pages
the allocator hands out next.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import FlashGeometry, PhysAddr
from repro.flash.device import StorageDevice
from repro.ftl import FtlCore, OutOfSpaceError, PageMap
from repro.sim import Simulator

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=4,
                    pages_per_block=4, page_size=64, cards_per_node=1)
CHIPS = [(0, 0, bus, chip) for chip in range(GEO.chips_per_bus)
         for bus in range(GEO.buses_per_card)]
GROUP = len(CHIPS) * GEO.pages_per_block
BLOCKS = [PhysAddr(*chip, block) for chip in CHIPS
          for block in range(GEO.blocks_per_chip)]


def build(mode, bad, retired):
    device = StorageDevice(Simulator(), geometry=GEO)
    for unit, block in bad:
        device.badblocks.mark_bad(PhysAddr(*CHIPS[unit], block))
    core = FtlCore(device.sim, device, device, mode=mode)
    if retired is not None:
        core.allocator.retire_chip(*CHIPS[retired][1:])
    return core


def reference_prefill(core, start, count):
    """What prefill must equal: one run-time mapping per page."""
    for lpn in range(start, start + count):
        addr = core.allocator.next_page()
        if addr is None:
            raise OutOfSpaceError(lpn)
        core.map.map_page(lpn, addr)
        core.program_done(addr)


def run(prefill, core, runs):
    """Apply ``runs`` in order; stop at the first out-of-space run."""
    for start, count in runs:
        try:
            prefill(core, start, count)
        except OutOfSpaceError:
            return "out of space"
    return "ok"


def state(core):
    pmap = core.map
    mapped = {lpn: pmap.lookup(lpn) for lpn in range(5 * GROUP)}
    return {
        "lookup": mapped,
        "reverse": {addr: pmap.reverse(addr)
                    for addr in mapped.values() if addr is not None},
        "valid": [pmap.valid_count(addr) for addr in BLOCKS],
        "sealed": pmap.sealed,
        "victim": pmap.min_victim(),
        "program_next": core._program_next,
        "next_pages": [core.allocator.next_page() for _ in range(GROUP)],
    }


RUNS = st.lists(st.tuples(st.integers(0, 2 * GROUP),
                          st.integers(1, 2 * GROUP + 3)),
                min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(mode=st.sampled_from(["striped", "sequential"]),
       bad=st.lists(st.tuples(st.integers(0, len(CHIPS) - 1),
                              st.integers(0, GEO.blocks_per_chip - 1)),
                    max_size=2),
       retired=st.one_of(st.none(), st.integers(0, len(CHIPS) - 1)),
       runs=RUNS)
def test_bulk_prefill_matches_page_at_a_time(mode, bad, retired, runs):
    bulk, reference = build(mode, bad, retired), build(mode, bad, retired)
    outcome = run(FtlCore.prefill, bulk, runs)
    assert outcome == run(reference_prefill, reference, runs)
    if outcome == "ok":
        assert bulk.prefilled_pages == sum(count for _, count in runs)
    assert state(bulk) == state(reference)


def test_whole_groups_map_no_page_one_at_a_time(monkeypatch):
    calls = []
    real = PageMap.map_page

    def counting(self, lpn, addr):
        calls.append(lpn)
        return real(self, lpn, addr)

    monkeypatch.setattr(PageMap, "map_page", counting)
    for mode in ("striped", "sequential"):
        core = build(mode, bad=[], retired=None)
        core.prefill(0, 3 * GROUP)
        assert core.map.mapped_count == 3 * GROUP
    assert calls == []
