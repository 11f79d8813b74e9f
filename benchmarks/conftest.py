"""Shared infrastructure for the benchmark harness.

Every benchmark file reproduces one table or figure from the paper.
The *measurement* lives in :mod:`repro.experiments` behind the
experiment registry (``repro run <id>`` executes the identical code);
the benchmark file fetches the structured
:class:`~repro.api.RunResult`, prints/saves the same rows the paper
reports, and asserts the *shape* of the result — orderings,
crossovers, rough factors — not absolute hardware numbers.  Every run
also asserts the experiment's golden sha256 pin (see ``golden.py``).

Run with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
tables inline.
"""

from __future__ import annotations

import pathlib

import pytest
from golden import REGENERATE, load_pins, result_sha256

GOLDEN = load_pins()
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report():
    """Print a rendered table and persist it under benchmarks/results."""
    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(text)
    return _report


@pytest.fixture
def report_tables(report):
    """Print and persist every table of a :class:`RunResult`."""
    def _report_tables(result) -> None:
        for table in result.tables:
            report(table.name, table.render())
    return _report_tables


def run_once(benchmark, fn):
    """Run a simulation exactly once under pytest-benchmark.

    DES results are deterministic; repeating rounds would only re-run
    identical simulations, so a single round is both faster and honest.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def run_registered(benchmark, exp_id: str):
    """Run a registry experiment exactly once under pytest-benchmark.

    Asserts the experiment's golden pin: the sha256 of the bytes
    ``repro run <id> --json`` would write must equal the one committed
    in ``benchmarks/golden.json``.
    """
    from repro.api import run_experiment
    result = run_once(benchmark, lambda: run_experiment(exp_id))
    pinned = GOLDEN["experiments"].get(exp_id, {}).get("sha256")
    measured = result_sha256(result)
    assert measured == pinned, (
        f"experiment {exp_id!r} output moved: sha256 {measured} != "
        f"pinned {pinned}; if intended, regenerate the pins with "
        f"`{REGENERATE}` and name the move in CHANGES.md")
    return result
