"""Distributed volumes: one logical address space across the cluster.

This package composes the node-local pieces (PR 5's
:class:`~repro.volume.LogicalVolume`, the QoS splitter, the storage
network) into the paper's headline abstraction — a rack of flash nodes
behaving as **one** storage appliance:

* :mod:`~repro.dvol.placement` — the pure planner mapping a
  cluster-wide LPN space onto per-node shards (striped or hashed, chunk
  granular so stripe adjacency survives within a shard);
* :mod:`~repro.dvol.sharded` — the :class:`ShardedVolume` facade
  behind ``read_lpn``/``write_lpn``: per-node shards, plus one
  :class:`~repro.network.RpcChannel` per node forwarding remote
  operations node-to-node over :mod:`repro.network` to a
  controller-side :class:`ShardServiceIface`, with tenant identity
  riding the request so the destination splitter arbitrates remote
  traffic individually.

Declaratively, a :class:`~repro.api.DistributedVolumeSpec` plus tenants
with ``access="dvol"`` builds all of this through
:class:`~repro.api.Session`.
"""

from .placement import PLACEMENT_MODES, PlacementPlanner
from .sharded import ShardServiceIface, ShardedVolume

__all__ = [
    "PLACEMENT_MODES",
    "PlacementPlanner",
    "ShardServiceIface",
    "ShardedVolume",
]
