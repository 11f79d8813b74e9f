"""Benchmark of the BlueDBM model: four workloads through the public API.

One workload, in this process (what a regression gate runs)::

    python3 bench/run.py --workload scan_read --seed 0 --seconds 25 --trace 0

repeats set-up + ``Session.run()`` until ``--seconds`` have passed (or
exactly ``--reps`` times), checks every repetition, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of BENCHMARK.json with ``--trace
0``, its per-layer metrics with ``--trace 1`` (a separate run: untraced
repetitions first, then one under cProfile).

Every workload, each in its own fresh process, one after another::

    python3 bench/run.py [--seed S] [--reps R] [--sets N] [--trace]

prints every metric with its unit, median, quartiles and sample count,
and writes the whole result as JSON (``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Every workload's simulated duration is this share of its design size
#: (workloads.DURATION_NS), so that all runs of a full regression gate
#: fit its time cap.
DEFAULT_SCALE = 0.125
#: A timed run samples set-up at least this often, and for at least this
#: share of its budget; the median is reported.
MIN_SETUPS = 5
SETUP_SHARE = 0.05
MIN_REPS = 2
#: End-to-end metrics with one sample per repetition (the others have
#: one value per run).
PER_REPETITION = ("setup_s", "requests_per_s")
DETAIL = "detail: "


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, reps, trace: bool,
            scale: float) -> dict:
    """Run one workload's repetitions (and traced run); return details.

    With ``reps`` the run makes exactly that many untraced repetitions;
    otherwise it repeats until ``seconds`` (half of them when tracing)
    have passed, then samples set-up at least ``MIN_SETUPS`` times and
    for at least ``SETUP_SHARE`` of the budget.
    """
    # Imported here: they import the model, which main() locates first.
    import harness
    import layers
    from workloads import SPECS

    spec = SPECS[workload](seed, scale)
    began = time.perf_counter()
    budget = seconds / 2 if trace else seconds
    runs = []
    while True:
        runs.append(harness.run_once(spec))
        if reps is not None:
            if len(runs) >= reps:
                break
        elif (time.perf_counter() - began >= budget
              and len(runs) >= (1 if trace else MIN_REPS)):
            break
    traced = harness.run_once(spec, profile=True) if trace else None
    setups = [run["setup_s"] for run in runs]
    if reps is None:
        setups += harness.setup_times(
            spec, MIN_SETUPS - len(setups),
            SETUP_SHARE * seconds - sum(setups))

    every = runs + ([traced] if traced else [])
    failures = [f for run in every for f in run["failures"]]
    digests = sorted({str(run.get("digest")) for run in every})
    if len(digests) != 1:
        failures.append(f"RunResult digest differs across repetitions: "
                        f"{digests}")
    correct = not failures
    attempted = sum(run["attempted"] for run in every)
    detail = {"workload": workload, "seed": seed, "scale": scale,
              "correct": correct, "failures": failures,
              "attempted": attempted,
              # Any failed check marks every operation of the run failed.
              "failed": (sum(run["failed"] for run in every) if correct
                         else attempted),
              "digest": digests[0] if correct else None,
              "setup_s": setups, "run_s": [r["run_s"] for r in runs],
              "raw_run_s": [r["raw_run_s"] for r in every],
              "probe_scale": [r["probe_scale"] for r in runs],
              "peak_rss_mb": harness.peak_rss_mb()}
    if not correct:
        return detail
    first = runs[0]
    detail["requests_per_s"] = [r["completions"] / t
                                for r, t in zip(runs, detail["run_s"])]
    for key in ("completions", "samples", "sim_ns", "events", "sim_p50_us",
                "sim_p99_us", "sim_kiops"):
        detail[key] = first[key]
    detail["end_to_end"] = {
        "setup_s": statistics.median(setups),
        "requests_per_s": statistics.median(detail["requests_per_s"]),
        "peak_rss_mb": detail["peak_rss_mb"],
        "sim_kiops": first["sim_kiops"],
    }
    if traced:
        completions = traced["completions"]
        untraced_s = statistics.median(detail["run_s"])
        folded = traced["layers"]
        per_layer = {}
        for name in layers.TRAFFIC_LAYERS:
            per_layer[f"{name}.self_share"] = folded["layers"][name]["share"]
            per_layer[f"{name}.calls_per_req"] = (
                folded["layers"][name]["calls"] / completions)
        per_layer.update({
            "io.request_p50_us": traced["sim_p50_us"],
            "io.request_p99_us": traced["sim_p99_us"],
            "io.traced_requests": traced["samples"],
            "sim.events_per_req": traced["events"] / completions,
            "sim.events_per_s": traced["events"] / untraced_s,
            "sim.processes_per_req": traced["processes"] / completions,
        })
        per_layer.update(traced["counters"])
        per_layer["bench.trace_overhead"] = traced["raw_run_s"] / (
            statistics.median(r["raw_run_s"] for r in runs))
        detail["per_layer"] = per_layer
        detail["layers"] = folded
    return detail


def result_line(detail: dict, trace: bool, config: dict) -> dict:
    """The last line of a one-workload run: correct/attempted/failed and
    every end-to-end (or, traced, per-layer) metric with its unit."""
    group = config["per_layer" if trace else "end_to_end"]
    values = detail.get("per_layer" if trace else "end_to_end", {})
    return {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in group},
    }


# ----------------------------------------------------------------------
# every workload, each in its own process
# ----------------------------------------------------------------------
def child(workload: str, args, trace: bool) -> dict:
    """One workload in a fresh single-threaded process; its details."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--scale", str(args.scale), "--reps", str(args.reps),
               "--trace", "1" if trace else "0"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=900)
    for line in done.stdout.splitlines():
        if line.startswith(DETAIL):
            return json.loads(line[len(DETAIL):])
    raise RuntimeError(f"{workload}: no result (exit {done.returncode})\n"
                       f"{done.stderr}")


def _commit() -> str:
    """The checked-out commit, suffixed ``-dirty`` for a modified tree."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def _worse_by(metric: dict, base: float, value: float) -> float:
    """How much worse ``value`` is than ``base``, as a share of it."""
    if not base:
        return 0.0
    change = (value - base) / base
    return change if metric["better"] == "lower" else -change


def summarize(config: dict, sets: list, traced) -> dict:
    """Per workload and end-to-end metric: quartiles and sample count per
    set, and whether every set's median lies within the bound of the
    first set's."""
    out = {}
    for workload in [w["name"] for w in config["workloads"]]:
        runs = [s[workload] for s in sets]
        entry = {"correct": all(r["correct"] for r in runs),
                 "digests": [r["digest"] for r in runs],
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "latency_samples": runs[0].get("samples", 0),
                 "metrics": {}}
        for metric in config["end_to_end"]:
            name = metric["name"]
            per_set = []
            for run in runs:
                samples = (run.get(name, []) if name in PER_REPETITION
                           else [run.get("end_to_end", {}).get(name, 0.0)])
                per_set.append({"quartiles": _quartiles(samples or [0.0]),
                                "n": len(samples)})
            medians = [s["quartiles"][1] for s in per_set]
            worst = max(_worse_by(metric, medians[0], m) for m in medians)
            entry["metrics"][name] = {
                "unit": metric["unit"], "bound": metric["bound"],
                "sets": per_set, "worst_set_delta": worst,
                "within_bound": worst <= metric["bound"]}
        if traced:
            entry["per_layer"] = traced[workload].get("per_layer", {})
            entry["layer_table"] = traced[workload].get("layers", {})
        out[workload] = entry
    return out


def print_summary(config: dict, summary: dict) -> None:
    units = {m["name"]: m["unit"] for m in config["per_layer"]}
    for workload, entry in summary.items():
        status = "ok" if entry["correct"] else "FAILED"
        print(f"\n== {workload}  [{status}]  attempted {entry['attempted']}"
              f"  failed {entry['failed']}  latency samples "
              f"{entry['latency_samples']}")
        print(f"   digest {' '.join(str(d) for d in entry['digests'])}")
        print("   metric           unit       median [q1, q3] n per set"
              "  (worst set vs first)")
        for name, metric in entry["metrics"].items():
            cells = "  ".join(
                f"{s['quartiles'][1]:.6g} [{s['quartiles'][0]:.6g}, "
                f"{s['quartiles'][2]:.6g}] n={s['n']}"
                for s in metric["sets"])
            verdict = ("within bound" if metric["within_bound"]
                       else "UNRESOLVED")
            print(f"   {name:<16} {metric['unit']:<10} {cells}  "
                  f"({metric['worst_set_delta']:+.3f} vs bound "
                  f"{metric['bound']}: {verdict})")
        for name, value in entry.get("per_layer", {}).items():
            print(f"   {name:<28} {units[name]:<12} {value:.6g}")


def run_all(args, config: dict) -> int:
    workloads = [w["name"] for w in config["workloads"]]
    sets = [{w: child(w, args, trace=False) for w in workloads}
            for _ in range(args.sets)]
    traced = ({w: child(w, args, trace=True) for w in workloads}
              if args.trace == "1" else None)
    summary = summarize(config, sets, traced)
    print_summary(config, summary)
    report = {"commit": _commit(), "nproc": os.cpu_count(),
              "python": platform.python_version(),
              "machine": platform.machine(), "seed": args.seed,
              "scale": args.scale, "reps": args.reps,
              "summary": summary, "sets": sets, "traced": traced}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {out}")
    return 0 if all(e["correct"] for e in summary.values()) else 1


def main(argv=None) -> int:
    config = load_config()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=config["run_seconds"])
    parser.add_argument("--reps", type=int, default=None,
                        help="exact repetitions (default: fill --seconds "
                             "for one workload, 3 each for all)")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=("0", "1"))
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="share of each workload's design duration")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", default=str(ROOT / "bench" / "results"
                                             / "latest.json"))
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench: no model source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        if args.reps is None:
            args.reps = 3
        return run_all(args, config)
    trace = args.trace == "1"
    detail = measure(args.workload, args.seed, args.seconds, args.reps,
                     trace, args.scale)
    print(DETAIL + json.dumps(detail, sort_keys=True))
    print(json.dumps(result_line(detail, trace, config)))
    return 0 if detail["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
