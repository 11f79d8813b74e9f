"""Self-tests of the benchmark: ``python -m pytest bench/tests -q``.

They drive ``bench/run.py`` at ``--scale 0.05`` (every workload's
simulated duration cut to 5% of its design size) and check that it
reports every metric, repeats its deterministic numbers exactly, and
counts failures the way BENCHMARK.json's consumers expect.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import harness
import layers
import run
from repro.sim import Simulator

SCALE = "0.05"
RUN = str(run.ROOT / "bench" / "run.py")
CONFIG = run.load_config()
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def one(workload: str, *args) -> tuple:
    """One workload through the gate's command; (detail, last line)."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--scale", SCALE,
         "--reps", "1", *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-2][len(run.DETAIL):]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def full(tmp_path_factory):
    """Every workload, untraced then traced: (stdout, report)."""
    out = tmp_path_factory.mktemp("full") / "result.json"
    done = subprocess.run(
        [sys.executable, RUN, "--scale", SCALE, "--reps", "1", "--trace",
         "--out", str(out)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced_again():
    return {w: one(w, "--trace", "1") for w in WORKLOADS}


def test_config_names_and_bounds():
    groups = CONFIG["end_to_end"] + CONFIG["per_layer"]
    names = [m["name"] for m in groups] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in groups)
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_module_maps_to_a_layer():
    modules = list(layers.source_modules())
    assert modules
    for path in modules:
        assert layers.layer_of(str(path)) in layers.LAYERS, path


def test_every_metric_printed_with_its_unit(full, traced_again):
    stdout, report = full
    for metric in CONFIG["end_to_end"] + CONFIG["per_layer"]:
        pattern = re.compile(rf"^\s+{re.escape(metric['name'])}\s+"
                             rf"{re.escape(metric['unit'])}\s+\S",
                             re.MULTILINE)
        assert pattern.search(stdout), metric["name"]
    for workload in WORKLOADS:
        assert report["summary"][workload]["correct"]
        _, line = traced_again[workload]
        assert {name: m["unit"] for name, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in CONFIG["per_layer"]}


def test_layer_shares_sum_to_one(full, traced_again):
    _, report = full
    tables = [report["traced"][w]["layers"] for w in WORKLOADS]
    tables += [traced_again[w][0]["layers"] for w in WORKLOADS]
    for table in tables:
        total = sum(layer["share"] for layer in table["layers"].values())
        assert total == pytest.approx(1.0, abs=0.01)


def test_deterministic_numbers_repeat_exactly(full, traced_again):
    _, report = full
    for workload in WORKLOADS:
        first, (second, _) = report["traced"][workload], traced_again[workload]
        exact = [name for name in first["per_layer"]
                 if not name.endswith((".self_share", "events_per_s",
                                       "trace_overhead"))]
        assert "sim.events_per_req" in exact and "ftl.calls_per_req" in exact
        for name in exact:
            assert first["per_layer"][name] == second["per_layer"][name], name
        for key in ("digest", "sim_kiops", "sim_p50_us", "sim_p99_us",
                    "events", "completions"):
            assert first[key] == second[key], key
        assert first["digest"] == report["sets"][0][workload]["digest"]


def test_seed_changes_digest_and_passes_checks(full):
    _, report = full
    for workload in WORKLOADS:
        detail, line = one(workload, "--seed", "1", "--trace", "0")
        assert line["correct"] and line["failed"] == 0, detail["failures"]
        assert line["attempted"] >= 1
        assert detail["digest"] != report["sets"][0][workload]["digest"]


def test_forced_raise_counts_every_operation_failed(monkeypatch):
    real_run = Simulator.run

    def crash_midway(self, until=None):
        real_run(self, until=1_000_000)
        raise RuntimeError("forced failure")

    monkeypatch.setattr(Simulator, "run", crash_midway)
    detail = run.measure("gc_churn", seed=0, seconds=0, reps=1, trace=False,
                         scale=float(SCALE))
    line = run.result_line(detail, False, CONFIG)
    assert not line["correct"]
    assert line["attempted"] >= 1
    assert line["failed"] == line["attempted"]
    assert "forced failure" in " ".join(detail["failures"])


def test_percentile_is_an_exact_sample():
    assert harness.percentile([1, 3, 5], 50) == 3
    assert harness.percentile(list(range(1, 101)), 99) == 99


def test_refuses_to_run_without_the_model(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run(
        CONFIG["command"] + ["--workload", WORKLOADS[0], "--seed", "0",
                             "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
