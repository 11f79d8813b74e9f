"""Distributed volumes: one logical address space across the cluster.

This package composes the node-local pieces (PR 5's
:class:`~repro.volume.LogicalVolume`, the QoS splitter, the storage
network) into the paper's headline abstraction — a rack of flash nodes
behaving as **one** storage appliance:

* :mod:`~repro.dvol.placement` — the pure planner mapping a
  cluster-wide LPN space onto per-node shards (striped or hashed, chunk
  granular so stripe adjacency survives within a shard);
* :mod:`~repro.dvol.router` — the per-node routing tier forwarding
  remote ``read_lpn``/``write_lpn`` node-to-node over
  :mod:`repro.network`, with tenant identity riding the request so the
  destination splitter arbitrates remote traffic individually;
* :mod:`~repro.dvol.sharded` — the :class:`ShardedVolume` facade tying
  them together behind ``read_lpn``/``write_lpn``.

Declaratively, a :class:`~repro.api.DistributedVolumeSpec` plus tenants
with ``access="dvol"`` builds all of this through
:class:`~repro.api.Session`.
"""

from .placement import PLACEMENT_MODES, PlacementPlanner
from .router import DvolRouter, ShardServiceIface
from .sharded import ShardedVolume

__all__ = [
    "PLACEMENT_MODES",
    "DvolRouter",
    "PlacementPlanner",
    "ShardServiceIface",
    "ShardedVolume",
]
