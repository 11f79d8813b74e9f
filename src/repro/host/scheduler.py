"""Accelerator-sharing scheduler (Section 4).

"It is also very common that multiple instances of a user application may
compete for the same hardware acceleration units.  For efficient sharing
of hardware resources, BlueDBM runs a scheduler that assigns available
hardware-acceleration units to competing user-applications.  In our
implementation, a simple FIFO-based policy is used."

The paper's FIFO policy remains the default, but the scheduler is a
thin wrapper over the unified pipeline's
:class:`~repro.io.scheduler.ScheduledResource`: the policy-ordered
grant queue comes from there; this class only adds unit-index
bookkeeping.  Pass
``policy="rr"`` (fair share across applications), ``"priority"`` or
``"edf"`` — or a policy instance — and the same unit pool is arbitrated
under that discipline.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..io import ScheduledResource
from ..sim import Simulator

__all__ = ["AcceleratorScheduler"]


class AcceleratorScheduler:
    """Policy-driven assignment of ``n_units`` identical accelerator units.

    With the default FIFO policy this is exactly the paper's scheduler;
    other policies reorder *which waiting application* gets the next
    free unit, nothing else.
    """

    def __init__(self, sim: Simulator, n_units: int, name: str = "accel",
                 policy=None):
        if n_units < 1:
            raise ValueError(f"need at least one unit, got {n_units}")
        self.sim = sim
        self.name = name
        self.n_units = n_units
        self._units = ScheduledResource(sim, capacity=n_units,
                                        policy=policy, name=name)
        self._free: Deque[int] = deque(range(n_units))

    def acquire(self, app_id: str, priority: int = 0,
                deadline_ns: Optional[int] = None):
        """Claim a unit for ``app_id`` (DES generator -> unit index).

        ``app_id`` doubles as the tenant for fair-share policies;
        ``priority``/``deadline_ns`` feed the priority/EDF policies.
        """
        yield self._units.request(tenant=app_id, priority=priority,
                                  deadline_ns=deadline_ns)
        # A grant guarantees a free unit: grants in flight never exceed
        # the resource capacity, which equals the unit count.
        return self._free.popleft()

    def release(self, unit: int) -> None:
        """Return a unit to the pool."""
        if not 0 <= unit < self.n_units:
            raise ValueError(f"unit {unit} out of range")
        if unit in self._free:
            raise ValueError(f"unit {unit} is already free")
        self._units.release()
        # The next grant's event is processed on a later step, so the
        # unit is back in the pool before any waiter pops it.
        self._free.append(unit)

    @property
    def policy(self):
        return self._units.policy

    @property
    def queue_depth(self) -> int:
        return self._units.queue_depth

