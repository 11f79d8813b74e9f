"""Process-parallel experiment execution with serial-identical results.

``parallel_map(fn, points, jobs=N)`` fans pure per-point experiment
functions across spawned worker processes; ``jobs=1`` is the exact
serial path.  See :mod:`repro.parallel.runner` for the purity contract
point functions must honor and the determinism guarantee the sweep
experiments pin in ``tests/test_qos_determinism.py``.
"""

from .runner import (
    PointError,
    WorkerPool,
    parallel_map,
)

__all__ = ["PointError", "WorkerPool", "parallel_map"]
