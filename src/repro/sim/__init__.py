"""Discrete-event simulation kernel used by every BlueDBM model.

Public surface:

* :class:`~repro.sim.core.Simulator` — the event loop (integer ns clock).
* :class:`~repro.sim.core.Event`, :class:`~repro.sim.core.Process` —
  event/coroutine primitives.
* :mod:`~repro.sim.resources` — FIFO stores, counted resources and
  credit pools (token flow control).
* :mod:`~repro.sim.stats` — counters, latency histograms, bandwidth ledgers.
* :mod:`~repro.sim.units` — ns/µs/GB/Gbps conversion helpers.
"""

from .core import (
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import CreditPool, Resource, Store
from .stats import (
    BandwidthLedger,
    LatencyHistogram,
    UtilizationTracker,
)
from . import units

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
    "Store",
    "Resource",
    "CreditPool",
    "LatencyHistogram",
    "BandwidthLedger",
    "UtilizationTracker",
    "units",
]
