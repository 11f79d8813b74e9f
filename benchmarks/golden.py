"""Regenerate the golden pins in ``benchmarks/golden.json``.

Usage, from the repository root (no arguments)::

    python benchmarks/golden.py

The pin file holds two kinds of exact values:

* ``experiments``: for every registered experiment, the sha256 of the
  bytes ``repro run <id> --json`` writes (so ``sha256sum`` on a saved
  file checks it).  ``run_registered`` in ``benchmarks/conftest.py``
  asserts this pin, so the tier-1 suite fails when any experiment
  output moves by a byte.
* ``workloads``: for each ``bench/workloads.py`` workload at seed 0
  and scale 0.05, the ``RunResult`` digest (sha256 of ``to_json()``),
  the simulator's event count, the ``Process`` objects built, the
  completed requests and the sha256 of every FTL core's GC victim
  order.  ``tests/test_golden.py`` asserts them.

The script runs every experiment serially, rewrites every sha256 and
workload entry, and leaves each ``wall_clock_s`` baseline untouched.
It exits 1 if an experiment with a ``wall_clock_s`` baseline ran more
than ``WALL_CLOCK_FACTOR`` times slower than it: shared machines are
noisy, so the gate only trips on a wholesale blow-up.  After a run,
``git diff benchmarks/golden.json`` lists exactly the pins that moved.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.api import Session, all_experiments, run_experiment  # noqa: E402
from repro.sim.core import Process  # noqa: E402

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden.json")
#: Slowdown past a ``wall_clock_s`` baseline that fails the run.
WALL_CLOCK_FACTOR = 3.0
#: The bench workloads are pinned at seed 0, shortened to this scale.
WORKLOAD_SEED = 0
WORKLOAD_SCALE = 0.05
REGENERATE = "python benchmarks/golden.py"


def result_sha256(result) -> str:
    """sha256 of the bytes ``repro run <id> --json`` writes."""
    return hashlib.sha256((result.to_json() + "\n").encode()).hexdigest()


def load_pins() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def workload_specs() -> dict:
    """``bench/workloads.py``'s ``SPECS``, imported by file path."""
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPECS


def gc_victims_sha256(session) -> str:
    """sha256 of ``[[core.name, core.gc_victims], ...]`` over the
    session's FTL cores (volume and dvol shards), sorted by name.

    Equal-validity victims are tied on the block key; a tie resolved
    the other way on symmetric chips need not move the ``RunResult``
    digest, so the victim order is pinned on its own.
    """
    volumes = list(session.volumes.values())
    if session.dvol is not None:
        volumes += list(session.dvol.shards.values())
    order = sorted([volume.core.name, volume.core.gc_victims]
                   for volume in volumes)
    return hashlib.sha256(json.dumps(order).encode()).hexdigest()


def workload_pin(make_spec) -> dict:
    """Run one bench workload; return its exact work counters.

    ``processes`` counts the ``Process`` objects built from
    ``Session(spec)`` through ``run()`` (what ``bench/`` reports per
    completion as ``sim.processes_per_req``); ``gc_victims`` is
    :func:`gc_victims_sha256`.
    """
    processes = 0
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal processes
        processes += 1
        init(self, *args, **kwargs)

    Process.__init__ = counting_init
    try:
        session = Session(make_spec(WORKLOAD_SEED, WORKLOAD_SCALE))
        result = session.run()
    finally:
        Process.__init__ = init
    return {
        "digest": hashlib.sha256(result.to_json().encode()).hexdigest(),
        "events": session.sim._eid,
        "processes": processes,
        "completions": sum(result.metrics["completions"].values()),
        "gc_victims": gc_victims_sha256(session),
    }


def main() -> int:
    old = load_pins()["experiments"]
    experiments: dict = {}
    slow = []
    for exp in all_experiments():
        # A sweep like open_loop leaves ~1M objects of cyclic garbage;
        # collect it here so a later experiment's wall clock never pays
        # for an earlier one's full collection.
        gc.collect()
        start = time.perf_counter()
        result = run_experiment(exp.exp_id)
        wall = time.perf_counter() - start
        entry = {"sha256": result_sha256(result)}
        line = f"{exp.exp_id:22s} {wall:7.2f}s"
        base = old.get(exp.exp_id, {}).get("wall_clock_s")
        if base is not None:
            entry["wall_clock_s"] = base
            line += f"  (baseline {base:.2f}s, {wall / base:.2f}x)"
            if wall > WALL_CLOCK_FACTOR * base:
                slow.append(exp.exp_id)
                line += "  REGRESSION"
        experiments[exp.exp_id] = entry
        print(line, flush=True)
    workloads = {name: workload_pin(make_spec)
                 for name, make_spec in workload_specs().items()}
    GOLDEN_PATH.write_text(json.dumps(
        {"experiments": experiments, "workloads": workloads},
        indent=2) + "\n")
    print(f"wrote {len(experiments)} experiment and {len(workloads)} "
          f"workload pins to {GOLDEN_PATH.name}")
    if slow:
        print(f"{len(slow)} experiment(s) ran over {WALL_CLOCK_FACTOR:g}x "
              f"their wall_clock_s baseline: {', '.join(slow)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
