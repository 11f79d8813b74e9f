"""Machine-readable experiment results.

A :class:`RunResult` is what every experiment and every
:meth:`~repro.api.session.Session.run` returns: named tables (the same
rows the paper prints), named series (figure data), scalar/structured
``metrics`` for assertions, and the unified request tracer's per-stage
and per-tenant statistics.  Everything serializes to JSON, so CI can
archive one ``RunResult`` per figure per commit and track the perf
trajectory over time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..reporting import format_table

__all__ = ["TableResult", "RunResult"]


def _jsonable(value: Any) -> Any:
    """Coerce a result payload into JSON-representable types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "as_dict"):
        return _jsonable(value.as_dict())
    if hasattr(value, "to_dict"):
        return _jsonable(value.to_dict())
    return str(value)


@dataclass
class TableResult:
    """One rendered-table's worth of results (a paper table or figure).

    ``name`` doubles as the results-file stem (``benchmarks/results/
    <name>.txt``), preserving the pre-API layout of saved renderings.
    """

    name: str
    title: str
    columns: List[str]
    rows: List[List[Any]] = field(default_factory=list)

    def render(self) -> str:
        """The fixed-width ASCII rendering benchmarks print and save."""
        return format_table(self.columns, self.rows, title=self.title)

    def to_dict(self) -> dict:
        return {"name": self.name, "title": self.title,
                "columns": list(self.columns),
                "rows": _jsonable(self.rows)}

    @classmethod
    def from_dict(cls, data: dict) -> "TableResult":
        return cls(name=data["name"], title=data.get("title", ""),
                   columns=list(data.get("columns", [])),
                   rows=[list(r) for r in data.get("rows", [])])


@dataclass
class RunResult:
    """The structured outcome of one experiment or workload run.

    * ``tables`` — the paper-shaped tables, ready to render/save;
    * ``series`` — named x/y figure data;
    * ``metrics`` — the measured values benchmarks assert on, with
      native keys (floats, tuples) preserved in-process and stringified
      only at JSON time;
    * ``tenant_stats`` / ``stage_stats`` — the
      :class:`~repro.io.RequestTracer`'s per-tenant completions /
      throughput / p50 / p99 and per-stage latency histograms;
    * ``spec`` — the :class:`~repro.api.spec.ScenarioSpec` dict that
      produced the run (when one did), so a result file is replayable.
    """

    experiment: str
    title: str = ""
    tables: List[TableResult] = field(default_factory=list)
    series: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    tenant_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    stage_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    elapsed_ns: int = 0
    spec: Optional[dict] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    # -- access ----------------------------------------------------------
    def table(self, name: str) -> TableResult:
        for table in self.tables:
            if table.name == name:
                return table
        raise KeyError(f"no table {name!r} in result "
                       f"{self.experiment!r}; have "
                       f"{[t.name for t in self.tables]}")

    def add_table(self, name: str, title: str, columns: List[str],
                  rows: List[List[Any]]) -> TableResult:
        table = TableResult(name=name, title=title, columns=columns,
                            rows=rows)
        self.tables.append(table)
        return table

    def render(self) -> str:
        """All tables rendered, in order (what ``repro run`` prints)."""
        return "\n".join(t.render() for t in self.tables)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "title": self.title,
            "tables": [t.to_dict() for t in self.tables],
            "series": _jsonable(self.series),
            "metrics": _jsonable(self.metrics),
            "tenant_stats": _jsonable(self.tenant_stats),
            "stage_stats": _jsonable(self.stage_stats),
            "elapsed_ns": self.elapsed_ns,
            "spec": _jsonable(self.spec),
            "meta": _jsonable(self.meta),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def save(self, path) -> None:
        """Write the JSON rendering to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        return cls(
            experiment=data["experiment"],
            title=data.get("title", ""),
            tables=[TableResult.from_dict(t)
                    for t in data.get("tables", [])],
            series=dict(data.get("series", {})),
            metrics=dict(data.get("metrics", {})),
            tenant_stats=dict(data.get("tenant_stats", {})),
            stage_stats=dict(data.get("stage_stats", {})),
            elapsed_ns=data.get("elapsed_ns", 0),
            spec=data.get("spec"),
            meta=dict(data.get("meta", {})),
        )
