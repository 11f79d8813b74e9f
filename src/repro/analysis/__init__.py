"""Analysis utilities: parameter sweeps and shared workload scenarios."""

from .qos import ADMISSION_SLOTS, QOS_POLICIES, QOS_TENANTS, run_policy
from .sweep import SweepResult, sweep

__all__ = ["SweepResult", "sweep",
           "QOS_POLICIES", "QOS_TENANTS", "ADMISSION_SLOTS", "run_policy"]
