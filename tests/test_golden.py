"""The golden pins themselves: coverage of the registry and the bench
workloads' exact work counters.

``benchmarks/golden.json`` pins every registered experiment's output
bytes (asserted by ``run_registered`` in each benchmark file) and, for
each ``bench/workloads.py`` workload at seed 0 and scale 0.05, the
``RunResult`` digest, the simulator's event count, the ``Process``
objects built, the completed requests, the sha256 of the GC victim
order, the profiled calls of ``src/repro`` functions per layer and the
``tracemalloc`` bytes a built session holds (asserted here).  A
deliberate one-event change anywhere on a workload's path moves the
event count, so it fails a named test rather than waiting for someone
to diff outputs by hand; a GC tie resolved the other way moves the
victim pin even when the digest holds; a layer that does more (or
less) work per request moves its ``calls`` pin; state that grows or
shrinks by one object moves ``setup_heap``.

The ``calls`` pins are asserted on Python 3.10 and 3.11 only, whose
profiled counts agree exactly.  Python 3.12 inlines comprehensions
(PEP 709), so they no longer count as calls and most layers' counts
differ there.  Object layouts change between minor versions, so the
``setup_heap`` pins are asserted on Python 3.11 only.

The pin script's run-reachability comparison is pure AST, so it is
unit-tested here on every Python version, though only 3.12 and later
record what ran.
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
    measured = golden.workload_pin(name)
    assert set(pinned) == set(measured) == {
        "digest", "events", "processes", "completions", "gc_victims",
        "calls", "setup_heap"}
    skipped = {"calls": not golden.CALLS_PINNED,
               "setup_heap": not golden.HEAP_PINNED}
    checked = [key for key in pinned if not skipped.get(key)]
    moved = {key: (measured[key], pinned[key]) for key in checked
             if measured[key] != pinned[key]}
    assert not moved, (
        f"bench workload {name!r} moved (measured, pinned): {moved}; "
        f"if intended, regenerate with `{golden.REGENERATE}` and name "
        f"the move in CHANGES.md")


#: A module for the reachability comparison: one function of each kind
#: the rule distinguishes.
SYNTHETIC = '''\
def reached():
    def closure():
        return 1
    return closure()


def never_run():
    return 2


@decorator
def decorated():
    return 3


class Thing:
    def __repr__(self):
        return "Thing"

    def stub(self):
        """Subclasses override this."""
        raise NotImplementedError

    def kept(self):
        return 4
'''


def _line(text: str) -> int:
    return SYNTHETIC.splitlines().index(text) + 1


def test_unreached_names_exactly_the_function_never_entered():
    entered = {("m.py", _line("def reached():")),
               ("m.py", _line("    def closure():")),
               # A decorated function's code starts at the decorator.
               ("m.py", _line("@decorator"))}
    missed = golden.unreached([("m.py", SYNTHETIC)], entered,
                              allowed={"m.py:Thing.kept"})
    assert missed == [f"m.py:{_line('def never_run():')} never_run"]


def test_unreached_reports_closures_and_methods_by_qualname():
    missed = golden.unreached([("m.py", SYNTHETIC)], set(), allowed=set())
    assert [entry.split(" ")[1] for entry in missed] == [
        "reached", "reached.closure", "never_run", "decorated",
        "Thing.kept"]


def test_reach_allowlist_is_short_and_names_live_functions():
    assert len(golden.REACH_ALLOWED) <= 8
    defined = set()
    for name, source in golden.src_modules():
        for entry in golden.unreached([(name, source)], set(), allowed=set()):
            where, qualname = entry.split(" ")
            defined.add(f"{name}:{qualname}")
    stale = golden.REACH_ALLOWED - defined
    assert not stale, f"REACH_ALLOWED names no function: {sorted(stale)}"
