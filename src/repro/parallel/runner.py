"""Deterministic process-parallel execution of experiment points.

Every sweep experiment in this repo is embarrassingly parallel: each
point builds its own fresh :class:`~repro.api.Session` (or cluster)
from a spec, runs it, and shares no state with any other point.  This
module fans those points across spawned worker processes while keeping
the one property the perf-snapshot artifacts and the determinism suite
depend on: **the merged output is byte-identical to the serial run**.

The contract a point function must honor (the "purity contract"):

* it is a *top-level* function (picklable by reference) taking one
  picklable argument — typically a tuple of primitives the function
  turns into a :class:`~repro.api.spec.ScenarioSpec`;
* every random decision derives from the argument (spec seeds), never
  from process identity, wall clock, or execution order;
* it returns plain picklable data (dicts / dataclasses of dicts) and
  touches no global state the caller will read afterwards.

Under that contract :func:`parallel_map` is observationally equal to
``list(map(fn, points))`` for any worker count: results are merged in
*input* order regardless of completion order, worker identity never
reaches the payload, and ``jobs=1`` *is* the serial path — no pool, no
subprocess machinery, just a list comprehension.

Failures keep their context: a point that raises in a worker surfaces
as a :class:`PointError` naming the failing point (index + argument)
and carrying the worker's full original traceback text — not the
useless ``concurrent.futures`` re-raise at the ``result()`` call site.
"""

from __future__ import annotations

import multiprocessing
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Sequence

__all__ = ["PointError", "WorkerPool", "parallel_map"]


class PointError(RuntimeError):
    """One sweep point failed in a worker process.

    Carries the failing point's position (``index``), its argument
    (``point``) and the worker's original formatted traceback
    (``worker_traceback``) so a crash three processes away reads like
    a local one.
    """

    def __init__(self, index: int, point: Any, worker_traceback: str):
        self.index = index
        self.point = point
        self.worker_traceback = worker_traceback
        super().__init__(
            f"sweep point #{index} ({point!r}) failed in a worker "
            f"process; original traceback:\n{worker_traceback}")


def _warm_worker(fault_seed: Optional[int] = None) -> None:
    """Worker initializer: import the experiments package once.

    Spawned workers start from a cold interpreter; importing
    :mod:`repro.experiments` here loads the whole simulator and the
    registry a single time per worker instead of once per point.
    ``fault_seed`` replays the parent's ``--fault-seed`` override —
    process-global state the purity contract would otherwise lose.
    """
    import repro.experiments  # noqa: F401

    if fault_seed is not None:
        from repro.faults import set_fault_seed_override
        set_fault_seed_override(fault_seed)


def _run_point(fn: Callable[[Any], Any], point: Any) -> tuple:
    """Execute one point in a worker, shielding the result channel.

    Exceptions are flattened to their formatted traceback *here*, in
    the worker, so propagation never depends on the exception type
    itself being picklable.
    """
    try:
        return ("ok", fn(point))
    except Exception:
        return ("error", traceback.format_exc())


class WorkerPool:
    """A reusable pool of spawned, repro-warm worker processes.

    Thread-safe: concurrent :meth:`map` calls interleave their points
    over the same workers.  Use as a context manager, or call
    :meth:`close`.
    """

    def __init__(self, jobs: int):
        if jobs < 2:
            raise ValueError(f"WorkerPool needs jobs >= 2, got {jobs}; "
                             f"jobs=1 is the serial path and never "
                             f"builds a pool")
        from ..faults import fault_seed_override

        self.jobs = jobs
        self._executor = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_warm_worker,
            initargs=(fault_seed_override(),))

    def map(self, fn: Callable[[Any], Any],
            points: Sequence[Any]) -> List[Any]:
        """Run ``fn`` over ``points``; results in input order."""
        points = list(points)
        futures = [self._executor.submit(_run_point, fn, point)
                   for point in points]
        results = []
        # Gathering in submission order is what makes the merge
        # deterministic: completion order never leaks into the output.
        for index, (future, point) in enumerate(zip(futures, points)):
            tag, payload = future.result()
            if tag == "error":
                raise PointError(index, point, payload)
            results.append(payload)
        return results

    def close(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def parallel_map(fn: Callable[[Any], Any], points: Iterable[Any],
                 jobs: int = 1) -> List[Any]:
    """``list(map(fn, points))``, optionally across worker processes.

    With ``jobs > 1`` and more than one point, the points run on an
    ephemeral spawn pool of ``min(jobs, len(points))`` workers;
    otherwise on the exact serial path — a plain loop in this process,
    with zero subprocess machinery.  For pure point functions (see the
    module docstring) the result is byte-identical on both.
    """
    points = list(points)
    if jobs <= 1 or len(points) <= 1:
        return [fn(point) for point in points]
    with WorkerPool(min(jobs, len(points))) as target:
        return target.map(fn, points)
