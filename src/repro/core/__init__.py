"""The BlueDBM appliance: node/cluster assembly and the ISP framework.

* :mod:`~repro.core.accel` — :class:`Engine`/:class:`EngineArray`
  in-store processor framework and the ``stream_job`` dataflow.
* :mod:`~repro.core.node` — :class:`BlueDBMNode` (Figure 2).
* :mod:`~repro.core.cluster` — :class:`BlueDBMCluster` with the four
  remote access paths of Figure 12 (ISP-F, H-F, H-RH-F, H-D).
"""

from .accel import Engine, EngineArray, stream_job
from .cluster import BlueDBMCluster
from .node import BlueDBMNode

__all__ = [
    "Engine",
    "EngineArray",
    "stream_job",
    "BlueDBMNode",
    "BlueDBMCluster",
]
