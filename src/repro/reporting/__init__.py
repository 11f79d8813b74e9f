"""Reporting: power/FPGA-resource models (Tables 1-3) and formatting.

* :mod:`~repro.reporting.resources` — parametric FPGA resource model.
* :mod:`~repro.reporting.power` — node/cluster power, RAMCloud sizing.
* :mod:`~repro.reporting.tables` — ASCII tables for benchmarks.
"""

from .power import NodePower, PowerModel, ramcloud_equivalent
from .resources import (
    ModuleUsage,
    artix7_flash_controller,
    fits_virtex7,
    totals,
    virtex7_host,
)
from .tables import banner, format_table

__all__ = [
    "NodePower",
    "PowerModel",
    "ramcloud_equivalent",
    "ModuleUsage",
    "artix7_flash_controller",
    "virtex7_host",
    "totals",
    "fits_virtex7",
    "banner",
    "format_table",
]
