"""Property tests for the distributed-volume placement planner.

:class:`repro.dvol.PlacementPlanner` is a pure function from LPN to
``(node, shard_lpn)`` — these properties pin the contract everything
else in :mod:`repro.dvol` leans on: the map is a bijection (every LPN
lands on exactly one shard slot, and every shard slot is reached),
contiguous runs shatter into at most ``shards`` stripe-adjacent
sub-runs covering exactly the original pages, and the striped and
hashed modes are two bijections over the *same* page sets.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.dvol import PLACEMENT_MODES, PlacementPlanner

@st.composite
def planners(draw):
    chunk = draw(st.integers(min_value=1, max_value=16))
    rounds = draw(st.integers(min_value=1, max_value=16))
    slack = draw(st.integers(min_value=0, max_value=chunk - 1))
    return PlacementPlanner(
        shards=draw(st.integers(min_value=1, max_value=6)),
        shard_pages=rounds * chunk + slack,  # partial chunks unusable
        placement=draw(st.sampled_from(PLACEMENT_MODES)),
        stripe_chunk_pages=chunk,
        hash_seed=draw(st.integers(min_value=0, max_value=3)),
    )


@settings(max_examples=200, deadline=None)
@given(planners())
def test_every_lpn_maps_to_exactly_one_slot(planner):
    seen = set()
    for lpn in range(planner.total_pages):
        node, shard_lpn = planner.locate(lpn)
        assert 0 <= node < planner.shards
        assert 0 <= shard_lpn < planner.rounds * planner.chunk
        seen.add((node, shard_lpn))
    # Injective over the full space -> each slot used exactly once.
    assert len(seen) == planner.total_pages


@settings(max_examples=200, deadline=None)
@given(planners())
def test_locate_covers_every_shard_slot(planner):
    slots = [planner.locate(lpn) for lpn in range(planner.total_pages)]
    # Injective, and onto every (node, shard_lpn) the shards place.
    assert len(set(slots)) == len(slots)
    assert set(slots) == {(node, shard_lpn)
                          for node in range(planner.shards)
                          for shard_lpn in range(planner.rounds
                                                 * planner.chunk)}


@settings(max_examples=200, deadline=None)
@given(planners(), st.data())
def test_split_run_covers_run_in_few_contiguous_pieces(planner, data):
    total = planner.total_pages
    if total == 0:
        return
    start = data.draw(st.integers(min_value=0, max_value=total - 1))
    count = data.draw(st.integers(min_value=1, max_value=total - start))
    runs = planner.split_run(start, count)
    lpn_at = {planner.locate(lpn): lpn for lpn in range(total)}

    covered = []
    for node, shard_start, length in runs:
        assert length >= 1
        for off in range(length):
            covered.append(lpn_at[(node, shard_start + off)])
    # Exactly the requested pages, each once.
    assert sorted(covered) == list(range(start, start + count))

    # Stripe-adjacency survives: per node the pieces merged, so a run
    # never shatters into more pieces than there are shards... unless
    # it wraps rounds, in which case each (node, round) boundary can
    # start a new piece — but a run no longer than one full stripe
    # (shards * chunk pages) stays within `shards` pieces.
    if count <= planner.shards * planner.chunk:
        assert len(runs) <= planner.shards


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=16),
       st.integers(min_value=1, max_value=16),
       st.integers(min_value=0, max_value=3))
def test_striped_and_hashed_cover_identical_page_sets(
        shards, rounds, chunk, seed):
    shard_pages = rounds * chunk
    striped = PlacementPlanner(shards, shard_pages, "striped", chunk)
    hashed = PlacementPlanner(shards, shard_pages, "hashed", chunk,
                              hash_seed=seed)
    assert striped.total_pages == hashed.total_pages

    def slots(planner):
        return {planner.locate(lpn) for lpn in range(planner.total_pages)}

    # Same LPN domain, same (node, shard_lpn) codomain — hashing only
    # permutes which node serves which chunk within each round.
    assert slots(striped) == slots(hashed)


def test_striped_round_robins_chunks():
    planner = PlacementPlanner(shards=3, shard_pages=32,
                               placement="striped", stripe_chunk_pages=4)
    assert [planner.locate(lpn)[0] for lpn in range(0, 24, 4)] \
        == [0, 1, 2, 0, 1, 2]
    # Within a chunk the shard LPNs are contiguous.
    assert [planner.locate(lpn)[1] for lpn in range(4, 8)] == [0, 1, 2, 3]


def test_out_of_range_rejected():
    planner = PlacementPlanner(shards=2, shard_pages=16,
                               placement="striped", stripe_chunk_pages=4)
    with pytest.raises(ValueError):
        planner.locate(planner.total_pages)
    with pytest.raises(ValueError):
        planner.locate(-1)
