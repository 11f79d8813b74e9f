"""One logical volume sharded across the cluster's nodes.

:class:`ShardedVolume` composes the distributed-volume pieces: the pure
:class:`~repro.dvol.placement.PlacementPlanner` decides where a logical
page lives, per-node :class:`~repro.volume.LogicalVolume` shards own the
FTL/GC machinery for their slice, and one
:class:`~repro.network.RpcChannel` per node carries remote operations
node-to-node over the storage network on the volume's own endpoint
block.  A tenant's :class:`~repro.host.HostInterface` drives it exactly
like a local volume — :meth:`read_lpn`/:meth:`write_lpn` — except that
the volume, not the caller, resolves which node serves each page:

* **local** pages run the interface's ordinary volume flow (software →
  buffers → splitter → device → PCIe → interrupt);
* **remote** pages pay the source host's software and RPC, ship the
  command to the shard's home node (``net`` stage spans at each
  serialization point), are served there against the shard volume
  through a controller-side :class:`ShardServiceIface` under the
  *source tenant's* identity, and return over the network into the
  source host's PCIe + completion interrupt — the remote path of
  ``host_remote_flash``, but against a logical address space.

The traced :class:`~repro.io.IORequest` travels inside the request
payload, exactly as ``qos_cluster`` remote tenants do: the destination
splitter schedules and accounts the remote read under the source
tenant's label (``SplitterPort.sched_tenant``), so remote traffic stays
individually arbitrated at the shard.  Deterministic propagation is
annotated as ``network`` (the route's round trip), so a remote op's
trace shows its network hops alongside ``queue``/``device``.

Ownership registration and functional prefill fan out through the
planner's contiguous-run splitting, so each shard sees its slice as
sequential shard LPNs and lays it out stripe-adjacent — the layout both
coalescers (local and remote) depend on.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..flash import Coalescer
from ..io import IOKind, IORequest, StageSpan
from ..network import RpcChannel
from ..sim import Simulator
from .placement import PlacementPlanner

__all__ = ["ShardServiceIface", "ShardedVolume"]

#: A forwarded flash command: shard LPN + op + tenant + reply route.
DVOL_REQUEST_BYTES = 32
#: A write acknowledgement (no data payload).
DVOL_ACK_BYTES = 8


class ShardServiceIface:
    """Controller-side I/O driver for one shard's volume flows.

    Implements the interface protocol
    :class:`~repro.volume.LogicalVolume` flows drive
    (``_read_flow``/``_write_flow``) without any
    host-side machinery: remote operations served here pay splitter
    admission and the device — never the destination host's software,
    buffers, PCIe or interrupts, which is exactly what the integrated
    network skips.  With a slot-paced read
    :class:`~repro.flash.coalesce.Coalescer` attached, reads stage there
    (same-source stripe-adjacent runs merge before admission); otherwise
    they ride the service port directly.
    """

    def __init__(self, port, coalescer: Optional[Coalescer] = None):
        self.port = port
        self.coalescer = coalescer

    def _read_flow(self, addr, software_path: bool,
                   request: Optional[IORequest]):
        if self.coalescer is not None:
            return (yield self.coalescer.submit(addr, request))
        return (yield from self.port.read_page(addr, request=request))

    def _write_flow(self, addr, data: bytes, software_path: bool,
                    request: Optional[IORequest]):
        yield from self.port.write_page(addr, data, request=request)


class ShardedVolume:
    """One cluster-wide LPN space over per-node volume shards."""

    #: The volume's private endpoint block: one request endpoint, then
    #: two response lanes chosen by request id.
    ENDPOINTS = 3

    def __init__(self, sim: Simulator, planner: PlacementPlanner,
                 page_size: int):
        self.sim = sim
        self.planner = planner
        self.page_size = page_size
        self.shards: Dict[int, object] = {}
        self.services: Dict[int, ShardServiceIface] = {}
        #: node id -> its channel (each node numbers its own requests).
        self.channels: Dict[int, RpcChannel] = {}
        #: node id -> remote ops it sourced and shard ops it served.
        self._ops: Dict[int, Dict[str, int]] = {}

    # -- assembly --------------------------------------------------------
    def add_shard(self, node: int, volume,
                  service: ShardServiceIface) -> None:
        """Register node ``node``'s shard volume and its service iface."""
        self.shards[node] = volume
        self.services[node] = service

    def connect(self, network, first_ep: int) -> None:
        """Give every node of ``network`` a channel on endpoints
        ``first_ep`` .. ``first_ep + ENDPOINTS - 1``, so any node can
        source remote operations and shard nodes serve them."""
        for node in range(network.topology.n_nodes):
            self.channels[node] = RpcChannel(
                self.sim, network, (node,), first_ep,
                range(first_ep + 1, first_ep + self.ENDPOINTS),
                self._serve, net_spans=True)
            self._ops[node] = dict.fromkeys(
                ("remote_reads", "remote_writes", "served_reads",
                 "served_writes"), 0)

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
        data = yield from self._remote(
            src, node, "remote_reads", request, DVOL_REQUEST_BYTES,
            op="read", lpn=shard_lpn, tenant=iface.tenant)
        with StageSpan(self.sim, request, "pcie"):
            yield from iface.pcie.device_to_host(self.page_size)
        with StageSpan(self.sim, request, "interrupt"):
            yield self.sim.timeout(iface.config.interrupt_ns)
        return data

    def write(self, src: int, iface, lpn: int, data: bytes,
              software_path: bool, request: Optional[IORequest]):
        """Write logical page ``lpn`` from node ``src`` (DES generator).

        A remote write's page data rides the request (command + payload
        on the wire); the reply is a small ack once the shard's program
        completed.
        """
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
        yield from self._remote(
            src, node, "remote_writes", request,
            DVOL_REQUEST_BYTES + len(data),
            op="write", lpn=shard_lpn, data=data, tenant=iface.tenant)

    def _remote(self, src: int, dst: int, counter: str,
                request: Optional[IORequest], nbytes: int, **message):
        """One shard op from ``src`` to its home node ``dst`` (DES
        generator) -> the reply's data."""
        channel = self.channels[src]
        data = yield from channel.call(src, dst, message, nbytes, request)
        self._ops[src][counter] += 1
        if request:
            request.annotate("network",
                             2 * channel.network.propagation_ns(src, dst))
        return data

    def _serve(self, node: int, msg: dict):
        """Serve one remote shard op arriving at ``node``."""
        volume = self.shards.get(node)
        if volume is None:
            raise RuntimeError(
                f"node {node} received a dvol request but serves no shard")
        request = msg["request"]
        if msg["op"] == "read":
            data = yield from volume.read_flow(
                msg["lpn"], self.services[node], False, request)
            self._ops[node]["served_reads"] += 1
            yield from self.channels[node].reply(node, msg, data,
                                                 self.page_size)
        elif msg["op"] == "write":
            yield from volume.write_flow(
                self.services[node], msg["lpn"], msg["data"], False,
                request, tenant=msg["tenant"])
            self._ops[node]["served_writes"] += 1
            yield from self.channels[node].reply(node, msg, None,
                                                 DVOL_ACK_BYTES)
        else:
            raise ValueError(f"unknown dvol op {msg['op']!r}")

    # -- traced top-level operations -------------------------------------
    def read_lpn(self, src: int, iface, lpn: int,
                 software_path: bool = True):
        """Traced cluster-wide logical read (DES generator) -> bytes."""
        request, owned = iface.port._start(IOKind.READ, lpn,
                                           self.page_size, None)
        data = yield from self.read(src, iface, lpn, software_path,
                                    request)
        if owned:
            iface.tracer.complete(request)
        return data

    def write_lpn(self, src: int, iface, lpn: int, data: bytes,
                  software_path: bool = True):
        """Traced cluster-wide logical write (DES generator)."""
        request, owned = iface.port._start(IOKind.WRITE, lpn, len(data),
                                           None)
        yield from self.write(src, iface, lpn, data, software_path,
                              request)
        if owned:
            iface.tracer.complete(request)

    # -- introspection ---------------------------------------------------
    def stats(self) -> dict:
        """Aggregate shard, per-node routing, and remote-coalescing
        statistics."""
        out = {
            "placement": self.planner.placement,
            "stripe_chunk_pages": self.planner.chunk,
            "logical_pages": self.logical_pages,
            "shards": {node: volume.stats()
                       for node, volume in sorted(self.shards.items())},
        }
        if self._ops:
            out["routers"] = {node: dict(ops)
                              for node, ops in sorted(self._ops.items())}
        remote = {node: service.coalescer.stats()
                  for node, service in sorted(self.services.items())
                  if service.coalescer is not None}
        if remote:
            out["remote_coalescing"] = remote
        return out
