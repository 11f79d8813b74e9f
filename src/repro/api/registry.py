"""The experiment registry: every reproduced table/figure, as code.

``repro.__main__.EXPERIMENTS`` used to be a hand-maintained tuple table
that could silently drift from the benchmarks.  Now each experiment
*registers itself* with the :func:`experiment` decorator next to the
code that actually runs it (in :mod:`repro.experiments`), and the CLI
(``repro list`` / ``repro run <id> [--json PATH]``), the benchmark
suite, and the registry tests all read the same registry.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .result import RunResult

__all__ = ["Experiment", "experiment", "get_experiment",
           "all_experiments", "run_experiment", "discover"]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment.

    ``exp_id`` is the CLI handle (``repro run <exp_id>``); ``label`` is
    the paper's name for it ("Figure 13"); ``produces`` is the benchmark
    file that asserts its shape; ``runner`` performs the measurement and
    returns a :class:`~repro.api.result.RunResult`.
    """

    exp_id: str
    title: str
    produces: str
    label: str
    runner: Callable[[], RunResult] = field(repr=False)


_REGISTRY: Dict[str, Experiment] = {}
_discovered = False


def experiment(exp_id: str, *, title: str, produces: str,
               label: Optional[str] = None):
    """Register the decorated callable as an experiment.

    The callable must return a :class:`RunResult` when invoked with no
    arguments; it may optionally accept a ``jobs=N`` keyword (detected
    by signature) to fan sweep points across worker processes.
    Registration order is preserved — it is the order ``repro list``
    prints.
    """
    def decorator(fn: Callable[[], RunResult]):
        if exp_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {exp_id!r}")
        _REGISTRY[exp_id] = Experiment(
            exp_id=exp_id, title=title, produces=produces,
            label=label or exp_id, runner=fn)
        return fn
    return decorator


def discover() -> None:
    """Import :mod:`repro.experiments` so every decorator has run."""
    global _discovered
    if not _discovered:
        importlib.import_module("repro.experiments")
        _discovered = True


def all_experiments() -> List[Experiment]:
    """Every registered experiment, in registration order."""
    discover()
    return list(_REGISTRY.values())


def get_experiment(exp_id: str) -> Experiment:
    discover()
    try:
        return _REGISTRY[exp_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {exp_id!r}; "
                       f"known: {known}") from None


def _accepts_jobs(runner: Callable[..., RunResult]) -> bool:
    try:
        return "jobs" in inspect.signature(runner).parameters
    except (TypeError, ValueError):  # builtins, odd callables
        return False


def run_experiment(exp_id: str, jobs: int = 1) -> RunResult:
    """Run one experiment and return its :class:`RunResult`.

    ``jobs`` fans the experiment's sweep points across worker processes
    when the runner supports it (its signature has a ``jobs``
    parameter); results are byte-identical to ``jobs=1``.  Runners
    without the knob run serially.

    Stamps the result with the registry's id/title so a saved JSON file
    is self-describing regardless of how the runner labelled it.
    """
    exp = get_experiment(exp_id)
    if _accepts_jobs(exp.runner):
        result = exp.runner(jobs=jobs)
    else:
        result = exp.runner()
    result.experiment = exp.exp_id
    if not result.title:
        result.title = exp.title
    result.meta.setdefault("label", exp.label)
    result.meta.setdefault("produces", exp.produces)
    return result
