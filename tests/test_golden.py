"""The golden pins themselves: coverage of the registry and the bench
workloads' exact work counters.

``benchmarks/golden.json`` pins every registered experiment's output
bytes (asserted by ``run_registered`` in each benchmark file) and, for
each ``bench/workloads.py`` workload at seed 0 and scale 0.05, the
``RunResult`` digest, the simulator's event count, the ``Process``
objects built, the completed requests and the sha256 of the GC victim
order (asserted here).  A deliberate one-event change anywhere on a
workload's path moves the event count, so it fails a named test rather
than waiting for someone to diff outputs by hand; a GC tie resolved the
other way moves the victim pin even when the digest holds.
"""

import importlib.util
import pathlib

import pytest

from repro.api import all_experiments

_GOLDEN_PY = (pathlib.Path(__file__).resolve().parent.parent
              / "benchmarks" / "golden.py")
_spec = importlib.util.spec_from_file_location("golden", _GOLDEN_PY)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

PINS = golden.load_pins()
SPECS = golden.workload_specs()

#: The wall-clock baselines (seconds) the pin script gates at 3x:
#: ``golden.py`` never rewrites them, and this pin keeps an edit to
#: ``golden.json`` from quietly loosening the gate.
WALL_CLOCK_BASELINES = {
    "fig12": 0.3, "fig13": 1.201, "qd_sweep": 0.348, "batching": 0.136,
    "volume_scan": 0.383, "write_burst": 0.127, "gc_steady": 2.461,
    "dvol_scan": 0.712, "dvol_qd_sweep": 2.077, "lifetime": 1.018,
    "fault_storm": 0.786,
}


def test_every_registered_experiment_is_pinned():
    registered = [exp.exp_id for exp in all_experiments()]
    assert list(PINS["experiments"]) == registered, (
        f"golden.json's experiments differ from the registry; "
        f"regenerate with `{golden.REGENERATE}`")
    assert all(len(entry["sha256"]) == 64
               for entry in PINS["experiments"].values())


def test_wall_clock_gate_keeps_its_baselines():
    gated = {exp_id: entry["wall_clock_s"]
             for exp_id, entry in PINS["experiments"].items()
             if "wall_clock_s" in entry}
    assert gated == WALL_CLOCK_BASELINES


@pytest.mark.parametrize("name", list(SPECS))
def test_workload_counters_match_golden_pins(name):
    pinned = PINS["workloads"][name]
    measured = golden.workload_pin(SPECS[name])
    assert set(pinned) == set(measured) == {
        "digest", "events", "processes", "completions", "gc_victims"}
    moved = {key: (measured[key], pinned[key]) for key in pinned
             if measured[key] != pinned[key]}
    assert not moved, (
        f"bench workload {name!r} moved (measured, pinned): {moved}; "
        f"if intended, regenerate with `{golden.REGENERATE}` and name "
        f"the move in CHANGES.md")
