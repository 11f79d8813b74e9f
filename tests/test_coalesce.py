"""Coalescing stage: planner properties + DES integration.

The grouping rule is a pure function (:func:`repro.flash.first_group`,
applied repeatedly by :func:`plan_groups` below), so hypothesis can
state its contract directly:

* groups **partition** the staged entries exactly — every input page is
  in exactly one merged command, none invented, none dropped;
* a group never crosses a tenant or card boundary and never exceeds
  the page cap;
* within a group, stripe indices are strictly consecutive from the
  head — the multi-page command is one run.

The DES half then checks the live :class:`~repro.flash.Coalescer`
against the same contract: merged commands deliver exactly the
requested pages with the right payloads, per-tenant runs never merge
across tenants at a shared port, and the admission ledger sees the
merged byte costs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import (
    Coalescer,
    FlashGeometry,
    FlashSplitter,
    FlashCard,
    first_group,
)
from repro.io import IORequest, RequestTracer
from repro.sim import Simulator

# ----------------------------------------------------------------------
# planner properties
# ----------------------------------------------------------------------
def plan_groups(keys, max_pages):
    """Partition a static arrival queue into merged commands.

    Repeatedly applies :func:`first_group` the way the dispatcher does
    when every entry is already staged; returns position groups in
    dispatch order.
    """
    remaining = list(range(len(keys)))
    groups = []
    while remaining:
        local = first_group([keys[pos] for pos in remaining], max_pages)
        groups.append([remaining[i] for i in local])
        remaining = [pos for i, pos in enumerate(remaining)
                     if i not in set(local)]
    return groups


keys = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]),     # tenant
              st.integers(0, 1),                    # card identity
              st.integers(0, 40)),                  # stripe index
    max_size=40)


@settings(max_examples=200, deadline=None)
@given(keys, st.integers(1, 9))
def test_plan_groups_partitions_exactly(entries, max_pages):
    groups = plan_groups(entries, max_pages)
    flat = [pos for group in groups for pos in group]
    assert sorted(flat) == list(range(len(entries))), (
        "merged commands must cover exactly the staged pages")
    assert len(set(flat)) == len(flat), "no page may merge twice"


@settings(max_examples=200, deadline=None)
@given(keys, st.integers(1, 9))
def test_plan_groups_respect_boundaries(entries, max_pages):
    for group in plan_groups(entries, max_pages):
        assert 1 <= len(group) <= max_pages
        tenants = {entries[pos][0] for pos in group}
        cards = {entries[pos][1] for pos in group}
        assert len(tenants) == 1, "a command never crosses tenants"
        assert len(cards) == 1, "a command never crosses cards"
        indices = [entries[pos][2] for pos in group]
        assert indices == list(range(indices[0],
                                     indices[0] + len(indices))), (
            "a command is one consecutive stripe run")


@settings(max_examples=200, deadline=None)
@given(keys, st.integers(1, 9))
def test_plan_groups_head_dispatches_first(entries, max_pages):
    groups = plan_groups(entries, max_pages)
    if entries:
        assert groups[0][0] == 0, "the head entry always dispatches"


def test_first_group_greedy_run():
    # Head 5, then 6 and 7 joinable in arrival order; 9 breaks the run.
    entries = [("a", 0, 5), ("a", 0, 7), ("a", 0, 6), ("a", 0, 9)]
    assert first_group(entries, 8) == [0, 2, 1]


def test_first_group_rejects_bad_cap():
    with pytest.raises(ValueError):
        first_group([], 0)


# ----------------------------------------------------------------------
# DES integration
# ----------------------------------------------------------------------
GEO = FlashGeometry(buses_per_card=4, chips_per_bus=2, blocks_per_chip=4,
                    pages_per_block=8, page_size=512, cards_per_node=1)


def _make_splitter(sim, **kwargs):
    card = FlashCard(sim, geometry=GEO)
    tracer = RequestTracer(sim)
    splitter = FlashSplitter(sim, card, tracer=tracer, coalesce=True,
                             **kwargs)
    return card, splitter


def _program(card, indices):
    for index in indices:
        addr = GEO.striped(index)
        card.store.program(addr, f"page-{index}".encode())


def test_merged_command_covers_exactly_the_requested_pages():
    sim = Simulator()
    card, splitter = _make_splitter(sim)
    port = splitter.add_port(tenant="isp")
    indices = list(range(8))
    _program(card, indices)
    results = {}

    def reader(index):
        result = yield sim.process(port.read_page(GEO.striped(index)))
        results[index] = result.data

    for index in indices:
        sim.process(reader(index))
    sim.run()
    assert set(results) == set(indices)
    for index in indices:
        assert results[index].startswith(f"page-{index}".encode()), (
            f"page {index} delivered the wrong payload")
    # One card, one adjacent run of 8 = one full-width command.
    stats = port.coalescer.stats()
    assert stats["pages"] == 8
    assert stats["commands"] == 1
    assert stats["pages_per_command"] == 8.0


def test_coalescing_never_crosses_tenants_on_a_shared_port():
    sim = Simulator()
    card, splitter = _make_splitter(sim)
    port = splitter.add_port(tenant="net")
    indices = list(range(4))
    _program(card, indices)

    def reader(index, tenant):
        request = IORequest("read", GEO.striped(index), GEO.page_size,
                            tenant=tenant, issued_ns=sim.now)
        yield sim.process(port.read_page(GEO.striped(index),
                                         request=request))

    # Interleaved tenants over one adjacent run: t0 gets 0,2 / t1 1,3 —
    # neither tenant's pages are consecutive, so nothing may merge.
    for index in indices:
        sim.process(reader(index, f"t{index % 2}"))
    sim.run()
    stats = port.coalescer.stats()
    assert stats["pages"] == 4
    assert stats["commands"] == 4, "cross-tenant pages must not merge"


def test_coalescing_respects_the_page_cap():
    sim = Simulator()
    card, splitter = _make_splitter(sim, coalesce_max_pages=2)
    port = splitter.add_port(tenant="isp")
    indices = list(range(4))
    _program(card, indices)
    for index in indices:
        sim.process(port.read_page(GEO.striped(index)), name=f"r{index}")
    sim.run()
    stats = port.coalescer.stats()
    assert stats["commands"] == 2
    assert stats["pages"] == 2 * 2


def test_admission_ledger_sees_merged_byte_costs():
    sim = Simulator()
    card, splitter = _make_splitter(sim, policy="fifo")
    port = splitter.add_port(tenant="isp")
    indices = list(range(4))
    _program(card, indices)
    admitted = []
    request = splitter.admission.request

    def counted(**kwargs):
        admitted.append((kwargs["tenant"], kwargs["cost"]))
        return request(**kwargs)

    splitter.admission.request = counted
    for index in indices:
        sim.process(port.read_page(GEO.striped(index)), name=f"r{index}")
    sim.run()
    # One 4-page command: one admission grant carrying 4 pages of cost.
    assert admitted == [("isp", 4 * GEO.page_size)]
    assert splitter.admission.in_use == 0
    assert port.coalescer.stats()["pages"] == 4
    assert splitter.bandwidth.totals["isp"] == 4 * GEO.page_size


def test_singleton_path_matches_uncoalesced_latency():
    # A lone request (nothing adjacent staged) must still complete and
    # pay the same card path as the uncoalesced splitter.
    sim_a = Simulator()
    card_a, splitter_a = _make_splitter(sim_a)
    port_a = splitter_a.add_port(tenant="isp")
    _program(card_a, [3])
    done_a = []

    def read_a(sim=sim_a):
        yield sim.process(port_a.read_page(GEO.striped(3)))
        done_a.append(sim.now)

    sim_a.process(read_a())
    sim_a.run()

    sim_b = Simulator()
    card_b = FlashCard(sim_b, geometry=GEO)
    splitter_b = FlashSplitter(sim_b, card_b)
    port_b = splitter_b.add_port(tenant="isp")
    card_b.store.program(GEO.striped(3), b"page-3")
    done_b = []

    def read_b(sim=sim_b):
        yield sim.process(port_b.read_page(GEO.striped(3)))
        done_b.append(sim.now)

    sim_b.process(read_b())
    sim_b.run()
    assert done_a == done_b, (
        "a singleton coalesced command must cost what a plain read costs")


def test_writes_and_erases_bypass_the_coalescer(chip_ops):
    sim = Simulator()
    card, splitter = _make_splitter(sim)
    port = splitter.add_port(tenant="isp")
    addr = GEO.striped(0)

    def writer(sim=sim):
        yield from port.write_page(addr, b"w" * GEO.page_size)
        yield from port.erase_block(addr.block_addr())

    sim.process(writer())
    sim.run()
    stats = port.coalescer.stats()
    assert stats["commands"] == 0, "only reads ride the coalescer"
    assert (chip_ops["program"], chip_ops["erase"]) == (1, 1)


def test_partial_failure_fails_only_the_bad_page():
    sim = Simulator()
    card, splitter = _make_splitter(sim)
    port = splitter.add_port(tenant="isp")
    indices = list(range(4))
    _program(card, indices)
    card.badblocks.mark_bad(GEO.striped(2))
    outcomes = {}

    def reader(index):
        try:
            result = yield sim.process(port.read_page(GEO.striped(index)))
            outcomes[index] = result.data
        except Exception as exc:
            outcomes[index] = exc

    for index in indices:
        sim.process(reader(index))
    sim.run()
    from repro.flash import UncorrectablePageError
    assert isinstance(outcomes[2], UncorrectablePageError), (
        "the bad page must fail")
    for index in (0, 1, 3):
        assert outcomes[index].startswith(f"page-{index}".encode()), (
            f"sibling page {index} must survive a partial failure")
    # Served bytes cover only the pages that actually delivered.
    assert splitter.bandwidth.totals["isp"] == 3 * GEO.page_size


@pytest.mark.parametrize("paced,commands", [(True, 2), (False, 4)])
def test_slot_paced_read_stage_merges_arrivals_behind_a_busy_slot(
        paced, commands):
    # One port slot: the first read takes it, and three stripe-adjacent
    # reads trickle in while it is busy.  A paced stage holds them and
    # sends one 3-page command when the slot frees; a greedy stage sends
    # each the moment it arrives, one page per command.
    sim = Simulator()
    card = FlashCard(sim, geometry=GEO)
    port = FlashSplitter(sim, card).add_port(max_in_flight=1, tenant="isp")
    stage = Coalescer(port, 8, paced=paced)
    indices = list(range(4))
    _program(card, indices)
    results = {}

    def reader(index):
        yield sim.timeout(100 * index)
        result = yield stage.submit(GEO.striped(index), None)
        results[index] = result.data

    for index in indices:
        sim.process(reader(index))
    sim.run()
    for index in indices:
        assert results[index].startswith(f"page-{index}".encode())
    assert stage.stats()["pages"] == 4
    assert stage.stats()["commands"] == commands


def test_coalescer_rejects_unknown_op():
    sim = Simulator()
    port = FlashSplitter(sim, FlashCard(sim, geometry=GEO)).add_port()
    with pytest.raises(ValueError):
        Coalescer(port, 8, op="erase")


def test_coalescer_requires_room_to_merge():
    sim = Simulator()
    card = FlashCard(sim, geometry=GEO)
    with pytest.raises(ValueError):
        FlashSplitter(sim, card, coalesce=True, coalesce_max_pages=1)
