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
  completed requests, the sha256 of every FTL core's GC victim order,
  the profiled calls of ``src/repro`` functions per layer and the
  ``tracemalloc`` bytes a built session holds (``setup_heap``), so
  host memory is pinned as exactly as events are.
  ``tests/test_golden.py`` asserts them.

The script runs every experiment serially, rewrites every sha256 and
workload entry, and leaves each ``wall_clock_s`` baseline untouched.
The ``calls`` pins hold Python 3.10/3.11 counts and the ``setup_heap``
pins Python 3.11 bytes; on other versions they are kept as they are
(:data:`CALLS_PINNED`, :data:`HEAP_PINNED`).
It exits 1 if an experiment with a ``wall_clock_s`` baseline ran more
than ``WALL_CLOCK_FACTOR`` times slower than it: shared machines are
noisy, so the gate only trips on a wholesale blow-up.  After a run,
``git diff benchmarks/golden.json`` lists exactly the pins that moved.

The same pass checks run-reachability (Python >= 3.12; older versions
print that it was skipped).  ``sys.monitoring`` records every function
entered while the pins above run, from before ``repro`` is imported,
and a spawned process beside them records what
:func:`run_entry_points` enters (the bench harness, the examples, the
CLI verbs).  The script also exits 1 if any ``src/repro`` function was
entered by neither, naming each as ``file:line Qualname``.  Exempt are
``__repr__``, abstract stubs (a lone ``raise NotImplementedError``) and
:data:`REACH_ALLOWED`.
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import gc
import hashlib
import importlib.util
import io
import json
import multiprocessing
import os
import pathlib
import pstats
import runpy
import subprocess
import sys
import tempfile
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def start_reach_monitor():
    """Record every code object entered from now on, or ``None`` on a
    Python without ``sys.monitoring`` (< 3.12).

    The ``PY_START`` callback adds ``(co_filename, co_firstlineno)`` and
    returns ``DISABLE``, so each function costs one callback per run.
    """
    if sys.version_info < (3, 12):
        return None
    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID
    entered = set()

    def on_start(code, offset):
        entered.add((code.co_filename, code.co_firstlineno))
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "golden-reach")
    monitoring.register_callback(tool, monitoring.events.PY_START, on_start)
    monitoring.set_events(tool, monitoring.events.PY_START)
    return entered


# Started before ``repro`` is first imported, so functions that run at
# import time count as entered; never when a test imports this module.
ENTERED = start_reach_monitor() if __name__ == "__main__" else None

from repro.api import Session, all_experiments, run_experiment  # noqa: E402
from repro.sim.core import Process  # noqa: E402

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden.json")
#: Slowdown past a ``wall_clock_s`` baseline that fails the run.
WALL_CLOCK_FACTOR = 3.0
#: The bench workloads are pinned at seed 0, shortened to this scale.
WORKLOAD_SEED = 0
WORKLOAD_SCALE = 0.05
REGENERATE = "python benchmarks/golden.py"
#: Python versions whose profiled call counts the ``calls`` pins hold.
#: 3.10 and 3.11 count alike; 3.12 inlines comprehensions (PEP 709),
#: so they stop counting as calls and every layer's count moves.
CALLS_PINNED = (3, 10) <= sys.version_info[:2] < (3, 12)
#: The Python version whose allocations the ``setup_heap`` pins hold:
#: object layouts change between minor versions (3.10 holds 1-8% less
#: for the same sessions), so only one is pinned.
HEAP_PINNED = sys.version_info[:2] == (3, 11)

#: ``src/repro`` functions the reachability check exempts though no
#: entry point runs them in this process, one reason each (at most 8).
REACH_ALLOWED = {
    # Run only inside the spawned workers of ``run ... --jobs 2``.
    "parallel/runner.py:_warm_worker",
    "parallel/runner.py:_run_point",
    # Error paths: built only when a sweep point or a read fails.
    "parallel/runner.py:PointError.__init__",
    "flash/controller.py:PartialReadError.__init__",
    # The hook a fault-interleaved FTL fuzzer drives to force GC at
    # chosen instants (also on the caller lint's ``ALLOWED``).
    "ftl/core.py:FtlCore.force_gc",
    # ``tuple._replace`` looks ``_make`` up on the subclass at run time.
    "flash/geometry.py:PhysAddr._make",
}


def result_sha256(result) -> str:
    """sha256 of the bytes ``repro run <id> --json`` writes."""
    return hashlib.sha256((result.to_json() + "\n").encode()).hexdigest()


def load_pins() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _bench_module(name: str):
    """``bench/<name>.py``, imported by file path."""
    path = ROOT / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_specs() -> dict:
    """``bench/workloads.py``'s ``SPECS``."""
    return _bench_module("workloads").SPECS


def layer_calls(profile) -> dict:
    """``{layer: calls}`` of a cProfile, in ``bench/layers.py``'s
    order: calls (a generator's resumptions included) of functions
    defined under ``src/repro``, summed by ``layer_of``.  Builtins and
    the standard library are left out; their counts differ between
    Python versions."""
    layers = _bench_module("layers")
    calls = dict.fromkeys(layers.LAYERS, 0)
    for (path, _, _), entry in pstats.Stats(profile).stats.items():
        layer = layers.layer_of(path)
        if layer is not None:
            calls[layer] += entry[1]
    return {layer: n for layer, n in calls.items() if n}


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


#: Run by :func:`setup_heap` in a fresh interpreter: ``argv`` is this
#: file and a workload name.
_HEAP_PROBE = """\
import importlib.util, sys
spec = importlib.util.spec_from_file_location("golden", sys.argv[1])
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)
print(golden.session_heap(sys.argv[2]))
"""


def session_heap(name: str) -> int:
    """``tracemalloc`` bytes a built ``Session`` of workload ``name``
    holds in this process.

    A first, untraced build warms what a session fills on first use;
    collecting before and after keeps garbage out of the count.
    """
    make_spec = workload_specs()[name]
    Session(make_spec(WORKLOAD_SEED, WORKLOAD_SCALE))
    spec = make_spec(WORKLOAD_SEED, WORKLOAD_SCALE)
    gc.collect()
    tracemalloc.start()
    try:
        session = Session(spec)
        gc.collect()
        heap = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del session
    return heap


def setup_heap(name: str) -> int:
    """:func:`session_heap` of workload ``name``, in a fresh interpreter.

    CPython reuses objects kept on its free lists without a traced
    allocation, so the count drifts with whatever ran before in a
    process; a fresh interpreter with a fixed hash seed starts from
    the same state every time.
    """
    out = subprocess.run(
        [sys.executable, "-c", _HEAP_PROBE, __file__, name], check=True,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": "0"})
    return int(out.stdout)


def workload_pin(name: str) -> dict:
    """Run one bench workload; return its exact work counters.

    ``processes`` counts the ``Process`` objects built from
    ``Session(spec)`` through ``run()`` (what ``bench/`` reports per
    completion as ``sim.processes_per_req``); ``gc_victims`` is
    :func:`gc_victims_sha256`; ``calls`` is :func:`layer_calls` over
    the same span, run under cProfile; ``setup_heap`` is
    :func:`setup_heap`, measured on a separate build.
    """
    make_spec = workload_specs()[name]
    heap = setup_heap(name)
    processes = 0
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal processes
        processes += 1
        init(self, *args, **kwargs)

    # Cyclic GC stays off while profiling: collecting an earlier run's
    # garbage closes its suspended generators, and each close would
    # count as a call of this run.
    gc.collect()
    gc.disable()
    Process.__init__ = counting_init
    try:
        with cProfile.Profile() as profile:
            session = Session(make_spec(WORKLOAD_SEED, WORKLOAD_SCALE))
            result = session.run()
    finally:
        Process.__init__ = init
        gc.enable()
    return {
        "digest": hashlib.sha256(result.to_json().encode()).hexdigest(),
        "events": session.sim._eid,
        "processes": processes,
        "completions": sum(result.metrics["completions"].values()),
        "gc_victims": gc_victims_sha256(session),
        "calls": layer_calls(profile),
        "setup_heap": heap,
    }


def _is_stub(node) -> bool:
    """An abstract stub: the body (after a docstring) is one
    ``raise NotImplementedError``."""
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def unreached(modules, entered, allowed=REACH_ALLOWED) -> list:
    """``"file:line Qualname"`` of every function in ``modules`` (pairs
    of a relative file name and its source) that ``entered`` (pairs of
    that file name and a code object's ``co_firstlineno``) misses.

    A decorated function's code object starts at its first decorator.
    ``__repr__``, abstract stubs and ``"file:Qualname"`` entries of
    ``allowed`` are exempt.
    """
    missed = []

    def visit(name, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(name, child, scope + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join(scope + [child.name])
                first = min([child.lineno] + [deco.lineno for deco
                                              in child.decorator_list])
                if ((name, first) not in entered
                        and child.name != "__repr__"
                        and not _is_stub(child)
                        and f"{name}:{qualname}" not in allowed):
                    missed.append(f"{name}:{child.lineno} {qualname}")
                visit(name, child, scope + [child.name])
            else:
                visit(name, child, scope)

    for name, source in modules:
        visit(name, ast.parse(source, filename=name), [])
    return missed


def src_modules():
    """``(path relative to src/repro, source)`` for every module."""
    return [(path.relative_to(SRC).as_posix(), path.read_text())
            for path in sorted(SRC.rglob("*.py"))]


def run_entry_points() -> None:
    """Run what reaches ``src/repro`` besides the pins: the bench
    harness (its ``checks`` reads the network byte ledger), every
    example and the CLI verbs, with their output suppressed.

    ``run chip_loss --jobs 2 --fault-seed 7`` drives the parent side of
    the worker pool, the ``--json`` writer and the fault-seed override.
    """
    from repro.__main__ import main as cli
    from repro.faults import set_fault_seed_override

    sys.path.insert(0, str(ROOT / "bench"))
    import harness

    for make_spec in workload_specs().values():
        harness.run_once(make_spec(WORKLOAD_SEED, WORKLOAD_SCALE))
    argv = sys.argv
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            for example in sorted((ROOT / "examples").glob("*.py")):
                sys.argv = [str(example)]
                try:
                    runpy.run_path(str(example), run_name="__main__")
                except ModuleNotFoundError as exc:
                    # What only this example reaches is then reported
                    # as unreached below.
                    print(f"examples/{example.name} not run: {exc}",
                          file=sys.stderr)
            for verb in (["info"], ["list"], ["demo"],
                         ["run", "chip_loss", "--jobs", "2",
                          "--fault-seed", "7", "--json", f"{tmp}/r.json"]):
                sys.argv = ["repro"] + verb
                cli()
        finally:
            sys.argv = argv
            set_fault_seed_override(None)


def entry_points_entered() -> set:
    """:func:`run_entry_points` under a monitor of its own; returns the
    code objects it entered."""
    entered = start_reach_monitor()
    run_entry_points()
    return entered


def pin_all() -> bool:
    """Rewrite every pin; True if the wall-clock gate tripped."""
    pins = load_pins()
    old = pins["experiments"]
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
    workloads = {}
    for name in workload_specs():
        workloads[name] = workload_pin(name)
        for key, pinned in (("calls", CALLS_PINNED),
                            ("setup_heap", HEAP_PINNED)):
            if not pinned:
                workloads[name][key] = pins["workloads"][name][key]
    GOLDEN_PATH.write_text(json.dumps(
        {"experiments": experiments, "workloads": workloads},
        indent=2) + "\n")
    print(f"wrote {len(experiments)} experiment and {len(workloads)} "
          f"workload pins to {GOLDEN_PATH.name}")
    if not CALLS_PINNED:
        print("calls pins kept: they hold Python 3.10/3.11 counts")
    if not HEAP_PINNED:
        print("setup_heap pins kept: they hold Python 3.11 bytes")
    if slow:
        print(f"{len(slow)} experiment(s) ran over {WALL_CLOCK_FACTOR:g}x "
              f"their wall_clock_s baseline: {', '.join(slow)}",
              file=sys.stderr)
    return bool(slow)


def main() -> int:
    if ENTERED is None:
        slow = pin_all()
        print("run-reachability not checked: sys.monitoring needs "
              "Python >= 3.12")
        return 1 if slow else 0
    # The other entry points run in a spawned process beside the pins,
    # so the check adds little wall time; what runs at import time is
    # recorded here, where monitoring starts before ``repro`` loads.
    with ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context("spawn")) as pool:
        side = pool.submit(entry_points_entered)
        slow = pin_all()
        entered = ENTERED | side.result()
    prefix = str(SRC) + "/"
    missed = unreached(src_modules(), {
        (filename[len(prefix):], line) for filename, line in entered
        if filename.startswith(prefix)})
    print(f"run-reachability: {len(missed)} src/repro function(s) never "
          f"entered")
    for entry in missed:
        print(f"  {entry}", file=sys.stderr)
    return 1 if slow or missed else 0


if __name__ == "__main__":
    sys.exit(main())
