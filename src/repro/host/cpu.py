"""Host CPU timing model: a 24-core Xeon server (Section 5).

Application software runs as worker processes that claim a core for each
compute slice; the model tracks busy core-time so Figure 21's CPU columns
can be reproduced.
"""

from __future__ import annotations

from ..sim import Resource, Simulator, UtilizationTracker
from .config import HostConfig

__all__ = ["HostCPU"]


class HostCPU:
    """The cores of one host server."""

    def __init__(self, sim: Simulator, config: HostConfig):
        self.sim = sim
        self.config = config
        self.cores = Resource(sim, capacity=config.n_cores, name="cores")
        self.tracker = UtilizationTracker("cpu")

    def compute(self, duration_ns: int):
        """Run ``duration_ns`` of work on one core (DES generator).

        Blocks while all cores are busy — this is what makes software
        baselines compute-bound at high thread counts.
        """
        if duration_ns < 0:
            raise ValueError("negative compute duration")
        yield self.cores.request()
        try:
            yield self.sim.timeout(duration_ns)
            self.tracker.busy(duration_ns)
        finally:
            self.cores.release()
