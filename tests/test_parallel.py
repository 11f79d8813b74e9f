"""repro.parallel: the deterministic process-pool runner's contract.

The experiment refactor rests on four promises from
:func:`repro.parallel.parallel_map`:

* ``jobs=1`` *is* the serial path — no pool, no subprocess machinery;
* results merge in submission order no matter which worker finishes
  first;
* a crash in a worker surfaces as :class:`~repro.parallel.PointError`
  naming the failing point (index + argument) and carrying the
  worker's original traceback text;
* for pure point functions it is observationally ``list(map(...))``
  (stated as a hypothesis property).

Spawning a pool costs seconds, so the hypothesis property runs on one
module-scoped two-worker :class:`~repro.parallel.WorkerPool`, the
substrate ``parallel_map(jobs > 1)`` maps through.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    PointError,
    WorkerPool,
    parallel_map,
)


# Point functions must be top-level (picklable by reference).
def square(x):
    return x * x


def boom_on_three(x):
    if x == 3:
        raise ValueError(f"boom at {x}")
    return x


def sleep_then_return(args):
    index, delay_s = args
    time.sleep(delay_s)
    return index


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as shared:
        yield shared


def test_jobs1_is_serial_and_spawns_no_processes(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("WorkerPool built on the serial path")

    monkeypatch.setattr("repro.parallel.runner.WorkerPool", forbidden)
    assert parallel_map(square, [1, 2, 3], jobs=1) == [1, 4, 9]
    # A single point short-circuits to the serial path too.
    assert parallel_map(square, [5], jobs=8) == [25]
    assert parallel_map(square, [], jobs=8) == []


def test_worker_pool_rejects_serial_job_counts():
    with pytest.raises(ValueError):
        WorkerPool(1)


def test_crash_names_point_and_keeps_original_traceback():
    with pytest.raises(PointError) as err:
        parallel_map(boom_on_three, [1, 2, 3, 4], jobs=2)
    assert err.value.index == 2
    assert err.value.point == 3
    # The worker's own traceback, not the futures re-raise site.
    assert "ValueError: boom at 3" in err.value.worker_traceback
    assert "boom_on_three" in err.value.worker_traceback
    assert "sweep point #2" in str(err.value)


def test_merge_order_ignores_completion_order():
    # The first point finishes last (two workers: point 0 holds one
    # worker while points 1..3 stream through the other), so any
    # completion-ordered merge would lead with 1, not 0.
    points = [(0, 0.5), (1, 0.0), (2, 0.1), (3, 0.0)]
    assert parallel_map(sleep_then_return, points, jobs=2) == [0, 1, 2, 3]


@settings(deadline=None, max_examples=15)
@given(xs=st.lists(st.integers(-10_000, 10_000), max_size=8))
def test_parallel_map_is_map(pool, xs):
    assert pool.map(square, xs) == list(map(square, xs))
