"""One logical volume sharded across the cluster's nodes.

:class:`ShardedVolume` composes the three distributed-volume pieces:
the pure :class:`~repro.dvol.placement.PlacementPlanner` decides where
a logical page lives, per-node :class:`~repro.volume.LogicalVolume`
shards own the FTL/GC machinery for their slice, and per-node
:class:`~repro.dvol.router.DvolRouter` instances carry remote
operations node-to-node over the storage network.  A tenant's
:class:`~repro.host.HostInterface` drives it exactly like a local
volume — :meth:`read_lpn`/:meth:`write_lpn` — except that the volume,
not the caller, resolves which node serves each page:

* **local** pages run the interface's ordinary volume flow (software →
  buffers → splitter → device → PCIe → interrupt);
* **remote** pages pay the source host's software and RPC, ship the
  command through the routing tier (``net`` stage spans at each
  serialization point), are scheduled at the destination splitter under
  the *source tenant's* identity, and return over the network into the
  source host's PCIe + completion interrupt — the remote path of
  ``host_remote_flash``, but against a logical address space.

Ownership registration and functional prefill fan out through the
planner's contiguous-run splitting, so each shard sees its slice as
sequential shard LPNs and lays it out stripe-adjacent — the layout both
coalescers (local and remote) depend on.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..io import IOKind, IORequest, StageSpan
from ..sim import Simulator
from .placement import PlacementPlanner
from .router import DvolRouter, ShardServiceIface

__all__ = ["ShardedVolume"]


class ShardedVolume:
    """One cluster-wide LPN space over per-node volume shards."""

    def __init__(self, sim: Simulator, planner: PlacementPlanner,
                 page_size: int, name: str = "dvol"):
        self.sim = sim
        self.planner = planner
        self.page_size = page_size
        self.name = name
        self.shards: Dict[int, object] = {}
        self.services: Dict[int, ShardServiceIface] = {}
        self.routers: Dict[int, DvolRouter] = {}

    # -- assembly --------------------------------------------------------
    def add_shard(self, node: int, volume,
                  service: ShardServiceIface) -> None:
        """Register node ``node``'s shard volume and its service iface."""
        self.shards[node] = volume
        self.services[node] = service

    def add_router(self, node: int, router: DvolRouter) -> None:
        """Register node ``node``'s routing tier."""
        self.routers[node] = router
        volume = self.shards.get(node)
        if volume is not None:
            router.attach(volume, self.services[node])

    @property
    def logical_pages(self) -> int:
        return self.planner.total_pages

    # -- functional state (planner fan-out) ------------------------------
    def register_owner(self, start: int, size: int, tenant: str) -> None:
        """Mark ``[start, start+size)`` as owned by ``tenant``, per shard."""
        for node, shard_start, length in self.planner.split_run(start, size):
            self.shards[node].register_owner(shard_start, length, tenant)

    def prefill(self, start: int, count: int) -> None:
        """Functionally pre-map a logical run (no simulated time).

        Each shard prefills its sub-run in ascending shard-LPN order, so
        sequential allocation lays the slice out stripe-adjacent — the
        physical shape the coalescers merge.
        """
        runs = sorted(self.planner.split_run(start, count),
                      key=lambda run: (run[0], run[1]))
        for node, shard_start, length in runs:
            self.shards[node].prefill(shard_start, length)

    # -- flows -----------------------------------------------------------
    def read(self, src: int, iface, lpn: int, software_path: bool,
             request: Optional[IORequest]):
        """Read logical page ``lpn`` from node ``src`` (DES generator)."""
        node, shard_lpn = self.planner.locate(lpn)
        if node == src:
            data = yield from self.shards[node].read_flow(
                shard_lpn, iface, software_path, request)
            return data
        with StageSpan(self.sim, request, "software"):
            if software_path:
                yield from iface.cpu.compute(iface.config.software_request_ns)
            yield self.sim.timeout(iface.config.rpc_ns)
        data = yield from self.routers[src].remote_read(
            node, shard_lpn, iface.tenant, request)
        with StageSpan(self.sim, request, "pcie"):
            yield from iface.pcie.device_to_host(self.page_size)
        with StageSpan(self.sim, request, "interrupt"):
            yield self.sim.timeout(iface.config.interrupt_ns)
        return data

    def write(self, src: int, iface, lpn: int, data: bytes,
              software_path: bool, request: Optional[IORequest]):
        """Write logical page ``lpn`` from node ``src`` (DES generator)."""
        node, shard_lpn = self.planner.locate(lpn)
        if node == src:
            yield from self.shards[node].write_flow(
                iface, shard_lpn, data, software_path, request,
                tenant=iface.tenant)
            return
        with StageSpan(self.sim, request, "software"):
            if software_path:
                yield from iface.cpu.compute(iface.config.software_request_ns)
            yield self.sim.timeout(iface.config.rpc_ns)
        with StageSpan(self.sim, request, "pcie"):
            yield from iface.pcie.host_to_device(len(data))
        yield from self.routers[src].remote_write(
            node, shard_lpn, data, iface.tenant, request)

    # -- traced top-level operations -------------------------------------
    def read_lpn(self, src: int, iface, lpn: int,
                 software_path: bool = True,
                 request: Optional[IORequest] = None):
        """Traced cluster-wide logical read (DES generator) -> bytes."""
        request, owned = iface._start(IOKind.READ, lpn, self.page_size,
                                      request)
        data = yield from self.read(src, iface, lpn, software_path,
                                    request)
        if owned:
            iface.tracer.complete(request)
        return data

    def write_lpn(self, src: int, iface, lpn: int, data: bytes,
                  software_path: bool = True,
                  request: Optional[IORequest] = None):
        """Traced cluster-wide logical write (DES generator)."""
        request, owned = iface._start(IOKind.WRITE, lpn, len(data),
                                      request)
        yield from self.write(src, iface, lpn, data, software_path,
                              request)
        if owned:
            iface.tracer.complete(request)

    # -- introspection ---------------------------------------------------
    def stats(self) -> dict:
        """Aggregate shard, router, and remote-coalescing statistics."""
        out = {
            "placement": self.planner.placement,
            "stripe_chunk_pages": self.planner.chunk,
            "logical_pages": self.logical_pages,
            "shards": {node: volume.stats()
                       for node, volume in sorted(self.shards.items())},
        }
        if self.routers:
            out["routers"] = {node: router.stats()
                              for node, router in sorted(
                                  self.routers.items())}
        remote = {node: service.coalescer.stats()
                  for node, service in sorted(self.services.items())
                  if service.coalescer is not None}
        if remote:
            out["remote_coalescing"] = remote
        return out
