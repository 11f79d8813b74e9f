"""Declarative scenario API: the front door to the whole appliance model.

One import gives everything a benchmark, example, or user script needs:

* **Specs** (:mod:`repro.api.spec`) — frozen, validated, dict/JSON
  round-trippable descriptions of machine + workload:
  :class:`ScenarioSpec`, :class:`WorkloadSpec`, :class:`TenantSpec`,
  :class:`TopologySpec`, plus the shared experiment geometries
  (:data:`BENCH_GEOMETRY`, :data:`ONE_CARD_GEOMETRY`,
  :data:`THROTTLED_TIMING`).
* **Session** (:mod:`repro.api.session`) — builds simulator, node(s),
  network and tracer from a spec; runs closed-loop workloads; returns
  structured results.
* **RunResult** (:mod:`repro.api.result`) — named tables, series,
  metrics and tracer statistics, all JSON-serializable.
* **Registry** (:mod:`repro.api.registry`) — the :func:`experiment`
  decorator and ``repro list`` / ``repro run`` machinery; experiment
  implementations live in :mod:`repro.experiments`.

Quick taste::

    from repro.api import ScenarioSpec, Session, run_experiment

    session = Session(ScenarioSpec(name="one-node"))
    node = session.node               # a full BlueDBMNode, ready to sim

    result = run_experiment("fig13")  # any registered table/figure
    result.save("fig13.json")         # machine-readable perf snapshot
"""

from .registry import (
    Experiment,
    all_experiments,
    discover,
    experiment,
    get_experiment,
    run_experiment,
)
from .result import RunResult, TableResult
from .session import Session
from .spec import (
    BENCH_GEOMETRY,
    ONE_CARD_GEOMETRY,
    THROTTLED_TIMING,
    DistributedVolumeSpec,
    FaultSpec,
    ScenarioSpec,
    SpecError,
    TenantSpec,
    TopologySpec,
    VolumeSpec,
    WorkloadSpec,
)

__all__ = [
    "BENCH_GEOMETRY",
    "ONE_CARD_GEOMETRY",
    "THROTTLED_TIMING",
    "ScenarioSpec",
    "WorkloadSpec",
    "TenantSpec",
    "TopologySpec",
    "VolumeSpec",
    "DistributedVolumeSpec",
    "FaultSpec",
    "SpecError",
    "Session",
    "RunResult",
    "TableResult",
    "Experiment",
    "experiment",
    "get_experiment",
    "all_experiments",
    "run_experiment",
    "discover",
]
