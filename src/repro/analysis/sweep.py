"""Parameter sweeps: run an experiment across a parameter grid.

The benchmarks reproduce the paper's fixed configurations; this utility
is for the follow-on questions a user of the appliance model actually
asks — "what if links were 25 Gbps?", "how many lanes until the flash
is the bottleneck?", "where does PCIe stop mattering?".  A sweep runs
an experiment factory once per parameter value (each in a fresh
simulator, so runs are independent and deterministic) and collects a
result series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

__all__ = ["SweepResult", "sweep"]


@dataclass
class SweepResult:
    """One parameter axis and the measured series along it."""

    parameter: str
    values: List[Any]
    results: List[Any]

    def __post_init__(self):
        if len(self.values) != len(self.results):
            raise ValueError("values/results length mismatch")

    def as_dict(self) -> Dict[Any, Any]:
        return dict(zip(self.values, self.results))

    def is_monotone_increasing(self) -> bool:
        """True if the (scalar) series never drops."""
        return all(b >= a for a, b in zip(self.results, self.results[1:]))


def sweep(parameter: str, values: Sequence[Any],
          experiment: Callable[[Any], Any]) -> SweepResult:
    """Run ``experiment(value)`` for each value; collect results.

    The experiment owns simulator construction so every point is an
    independent, reproducible run.
    """
    values = list(values)
    if not values:
        raise ValueError("empty sweep")
    return SweepResult(parameter, values,
                       [experiment(v) for v in values])

