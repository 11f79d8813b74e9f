"""In-store processor framework (the hardware-software codesign layer).

The paper's in-store processors are Bluespec modules wired to the four
node services (flash, network, host, DRAM) through latency-insensitive
FIFOs.  Here an :class:`Engine` is a Python object with

* a **functional core** — :meth:`process_page` computes the real answer
  on real page bytes, and
* a **timing contract** — the engine consumes its input stream at a
  configured ``bytes_per_ns``, occupying its unit for the corresponding
  simulated time.

:class:`EngineArray` models the replicated engines the paper deploys
("we use 4 engines per bus to maximize the flash bandwidth", Section
7.3).
"""

from __future__ import annotations

from typing import Any, Sequence

from ..sim import Resource, Simulator, units

__all__ = ["Engine", "EngineArray"]


class Engine:
    """One in-store processing engine instance."""

    def __init__(self, sim: Simulator, bytes_per_ns: float,
                 name: str = "engine"):
        if bytes_per_ns <= 0:
            raise ValueError("engine throughput must be positive")
        self.sim = sim
        self.bytes_per_ns = bytes_per_ns
        self.name = name
        self.unit = Resource(sim, capacity=1, name=name)

    # -- functional core (override me) --------------------------------------
    def process_page(self, data: bytes, context: Any = None) -> Any:
        """Compute this engine's real result for one page of data."""
        raise NotImplementedError

    # -- timed execution -------------------------------------------------------
    def run_page(self, data: bytes, context: Any = None):
        """Process one page at engine speed (DES generator -> result)."""
        yield self.unit.request()
        try:
            yield self.sim.timeout(
                units.transfer_ns(len(data), self.bytes_per_ns))
        finally:
            self.unit.release()
        return self.process_page(data, context)


class EngineArray:
    """A bank of identical engines fed round-robin."""

    def __init__(self, engines: Sequence[Engine]):
        if not engines:
            raise ValueError("engine array cannot be empty")
        self.engines = list(engines)
        self._next = 0

    def pick(self) -> Engine:
        """Round-robin engine selection (static dispatch, as in hardware)."""
        engine = self.engines[self._next]
        self._next = (self._next + 1) % len(self.engines)
        return engine

