"""Per-node routing tier for distributed volumes.

Mirrors the cluster's request/response protocol
(:class:`~repro.core.cluster.BlueDBMCluster`) on the distributed
volume's own endpoint set: remote ``read_lpn``/``write_lpn`` operations
become request packets to the shard's home node, are served there
against the shard :class:`~repro.volume.LogicalVolume` through a
controller-side :class:`ShardServiceIface` (no host software or PCIe at
the destination — the service runs in the storage device, the paper's
controller-to-controller story), and the page/ack rides back on one of
two response endpoints chosen by request id, so parallel serial lanes
between a node pair are both used.

The traced :class:`~repro.io.IORequest` travels inside the request
payload, exactly as ``qos_cluster`` remote tenants do: the destination
splitter schedules and accounts the remote read under the *source
tenant's* label (``SplitterPort.sched_tenant``), so remote traffic
stays individually arbitrated at the shard.  Send-side serialization is
charged to a ``net`` stage span and deterministic propagation is
annotated as ``network`` (2 x hops x hop latency), so a remote op's
trace shows its network hops alongside ``queue``/``device``.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from ..flash import Coalescer
from ..io import IORequest, StageSpan
from ..sim import Counter, Event, Simulator

__all__ = ["DvolRouter", "ShardServiceIface"]

#: A forwarded flash command: shard LPN + op + tenant + reply route.
DVOL_REQUEST_BYTES = 32
#: A write acknowledgement (no data payload).
DVOL_ACK_BYTES = 8


class ShardServiceIface:
    """Controller-side I/O driver for one shard's volume flows.

    Implements the interface protocol
    :class:`~repro.volume.LogicalVolume` flows drive
    (``_read_flow``/``_write_flow`` plus a ``tenant`` label) without any
    host-side machinery: remote operations served here pay splitter
    admission and the device — never the destination host's software,
    buffers, PCIe or interrupts, which is exactly what the integrated
    network skips.  With a slot-paced read
    :class:`~repro.flash.coalesce.Coalescer` attached, reads stage there
    (same-source stripe-adjacent runs merge before admission); otherwise
    they ride the service port directly.
    """

    def __init__(self, sim: Simulator, port, page_size: int,
                 coalescer: Optional[Coalescer] = None,
                 tenant: str = "dvol"):
        self.sim = sim
        self.port = port
        self.page_size = page_size
        self.coalescer = coalescer
        self.tenant = tenant

    def _read_flow(self, addr, software_path: bool,
                   request: Optional[IORequest], interrupt: bool = True):
        if self.coalescer is not None:
            result = yield self.coalescer.submit(addr, request)
            return result
        return (yield from self.port.read_page(addr, request=request))

    def _write_flow(self, addr, data: bytes, software_path: bool,
                    request: Optional[IORequest]):
        yield from self.port.write_page(addr, data, request=request)


class DvolRouter:
    """One node's routing tier: forwards remote shard ops node-to-node.

    Every node gets a router (any node can source remote operations);
    shard nodes additionally :meth:`attach` their volume + service
    interface and answer requests.  The router owns its request ids and
    pending-event table, so its protocol never interleaves with the
    cluster's own remote paths even though both ride one fabric.
    """

    def __init__(self, sim: Simulator, network, node_id: int,
                 request_ep: int, response_eps, page_size: int):
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.request_ep = request_ep
        self.response_eps = tuple(response_eps)
        self.page_size = page_size
        self.volume = None
        self.iface: Optional[ShardServiceIface] = None
        self._req_ids = itertools.count()
        self._pending: Dict[int, Event] = {}
        self.remote_reads = Counter(f"dvol-n{node_id}-remote-reads")
        self.remote_writes = Counter(f"dvol-n{node_id}-remote-writes")
        self.served_reads = Counter(f"dvol-n{node_id}-served-reads")
        self.served_writes = Counter(f"dvol-n{node_id}-served-writes")
        sim.process(self._service(), name=f"dvol-service-{node_id}")
        for ep in self.response_eps:
            sim.process(self._response_dispatcher(ep),
                        name=f"dvol-resp-{node_id}-{ep}")

    def attach(self, volume, iface: ShardServiceIface) -> None:
        """Make this node a shard server for ``volume``."""
        self.volume = volume
        self.iface = iface

    def stats(self) -> dict:
        return {"remote_reads": self.remote_reads.value,
                "remote_writes": self.remote_writes.value,
                "served_reads": self.served_reads.value,
                "served_writes": self.served_writes.value}

    # -- source side ----------------------------------------------------
    def _annotate(self, request: Optional[IORequest], dst: int) -> None:
        if request:
            hops = self.network.hop_count(self.node_id, dst)
            request.annotate(
                "network", 2 * hops * self.network.config.hop_latency_ns)

    def remote_read(self, dst: int, shard_lpn: int, tenant: str,
                    request: Optional[IORequest]):
        """Read one shard page of node ``dst`` (DES generator) -> bytes."""
        req_id = next(self._req_ids)
        reply_ep = self.response_eps[req_id % len(self.response_eps)]
        event = self.sim.event()
        self._pending[req_id] = event
        message = {"op": "read", "lpn": shard_lpn, "req_id": req_id,
                   "reply_ep": reply_ep, "tenant": tenant,
                   "request": request}
        endpoint = self.network.endpoint(self.node_id, self.request_ep)
        with StageSpan(self.sim, request, "net"):
            yield from endpoint.send(dst, message, DVOL_REQUEST_BYTES)
        data = yield event
        self.remote_reads.add()
        self._annotate(request, dst)
        return data

    def remote_write(self, dst: int, shard_lpn: int, data: bytes,
                     tenant: str, request: Optional[IORequest]):
        """Write one shard page of node ``dst`` (DES generator).

        The page data rides the request (command + payload on the wire);
        the response is a small ack once the shard's program completed.
        """
        req_id = next(self._req_ids)
        reply_ep = self.response_eps[req_id % len(self.response_eps)]
        event = self.sim.event()
        self._pending[req_id] = event
        message = {"op": "write", "lpn": shard_lpn, "data": data,
                   "req_id": req_id, "reply_ep": reply_ep,
                   "tenant": tenant, "request": request}
        endpoint = self.network.endpoint(self.node_id, self.request_ep)
        with StageSpan(self.sim, request, "net"):
            yield from endpoint.send(
                dst, message, DVOL_REQUEST_BYTES + len(data))
        yield event
        self.remote_writes.add()
        self._annotate(request, dst)

    # -- destination side -----------------------------------------------
    def _service(self):
        """Serve remote shard operations arriving on the request endpoint."""
        endpoint = self.network.endpoint(self.node_id, self.request_ep)
        while True:
            message = yield from endpoint.receive()
            self.sim.process(self._serve(message.src, message.payload),
                             name=f"dvol-serve-{self.node_id}")

    def _serve(self, requester: int, msg: dict):
        if self.volume is None:
            raise RuntimeError(
                f"node {self.node_id} received a dvol request but "
                f"serves no shard")
        request = msg.get("request")
        reply_ep = self.network.endpoint(self.node_id, msg["reply_ep"])
        if msg["op"] == "read":
            data = yield from self.volume.read_flow(
                msg["lpn"], self.iface, False, request, interrupt=False)
            self.served_reads.add()
            with StageSpan(self.sim, request, "net"):
                yield from reply_ep.send(
                    requester, {"req_id": msg["req_id"], "data": data},
                    self.page_size)
        elif msg["op"] == "write":
            yield from self.volume.write_flow(
                self.iface, msg["lpn"], msg["data"], False, request,
                tenant=msg["tenant"])
            self.served_writes.add()
            with StageSpan(self.sim, request, "net"):
                yield from reply_ep.send(
                    requester, {"req_id": msg["req_id"], "data": None},
                    DVOL_ACK_BYTES)
        else:
            raise ValueError(f"unknown dvol op {msg['op']!r}")

    def _response_dispatcher(self, ep_id: int):
        endpoint = self.network.endpoint(self.node_id, ep_id)
        while True:
            message = yield from endpoint.receive()
            event = self._pending.pop(message.payload["req_id"], None)
            if event is not None:
                event.succeed(message.payload["data"])
