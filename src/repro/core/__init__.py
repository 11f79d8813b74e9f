"""The BlueDBM appliance: node/cluster assembly and the ISP framework.

* :mod:`~repro.core.accel` — :class:`Engine`/:class:`EngineArray`
  in-store processor framework.
* :mod:`~repro.core.node` — :class:`BlueDBMNode` (Figure 2).
* :mod:`~repro.core.cluster` — :class:`BlueDBMCluster` with the four
  remote access paths of Figure 12 (ISP-F, H-F, H-RH-F, H-D).
"""

from .accel import Engine, EngineArray
from .cluster import BlueDBMCluster
from .node import BlueDBMNode

__all__ = [
    "Engine",
    "EngineArray",
    "BlueDBMNode",
    "BlueDBMCluster",
]
