"""Tests for the sweep utilities and the command-line entry point."""

import sys

import pytest

from repro.__main__ import main
from repro.analysis import SweepResult, sweep
from repro.network import NetworkConfig, StorageNetwork, line
from repro.sim import Simulator, units


class TestSweep:
    def test_basic_sweep(self):
        result = sweep("x", [1, 2, 3], lambda x: x * x)
        assert result.values == [1, 2, 3]
        assert result.results == [1, 4, 9]
        assert result.as_dict() == {1: 1, 2: 4, 3: 9}

    def test_monotonicity_helper(self):
        up = SweepResult("x", [1, 2, 3], [1.0, 2.0, 3.0])
        assert up.is_monotone_increasing()
        wobbly = SweepResult("x", [1, 2, 3], [1.0, 0.99, 3.0])
        assert not wobbly.is_monotone_increasing()

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            sweep("x", [], lambda x: x)
        with pytest.raises(ValueError):
            SweepResult("x", [1], [])

    def test_sweep_over_real_simulations(self):
        """Each point runs an independent simulator: link speed sweep."""
        def experiment(gbps):
            sim = Simulator()
            net = StorageNetwork(sim, line(2),
                                 config=NetworkConfig(link_gbps=gbps),
                                 n_endpoints=1)
            done = []

            n = 100  # long enough that the hop latency amortizes

            def sender(sim):
                for i in range(n):
                    yield sim.process(net.endpoint(0, 0).send(1, i, 512))

            def receiver(sim):
                for _ in range(n):
                    yield sim.process(net.endpoint(1, 0).receive())
                done.append(sim.now)

            sim.process(sender(sim))
            sim.process(receiver(sim))
            sim.run()
            return units.bandwidth_gbps(n * 512, done[0])

        result = sweep("link_gbps", [10, 20, 40], experiment)
        assert result.is_monotone_increasing()
        # Payload rate tracks the raw link rate at ~82% efficiency.
        assert result.results[0] == pytest.approx(8.2, rel=0.1)
        assert result.results[2] == pytest.approx(32.8, rel=0.15)


def run_cli(monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", ["repro", *args])
    return main()


class TestCLI:
    def test_info(self, capsys, monkeypatch):
        assert run_cli(monkeypatch, "info") == 0
        out = capsys.readouterr().out
        assert "2.4 GB/s" in out
        assert "240 W" in out
        assert "0.48 us/hop" in out

    def test_demo(self, capsys, monkeypatch):
        assert run_cli(monkeypatch, "demo") == 0
        out = capsys.readouterr().out
        assert "ISP streamed" in out
        assert "remote ISP-F read" in out

    def test_experiments(self, capsys, monkeypatch):
        assert run_cli(monkeypatch, "experiments") == 0
        out = capsys.readouterr().out
        assert "Figure 21" in out
        assert "benchmarks/" in out

    def test_default_is_info(self, capsys, monkeypatch):
        assert run_cli(monkeypatch) == 0
        assert "BlueDBM reproduction" in capsys.readouterr().out
