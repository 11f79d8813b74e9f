"""The BlueDBM rack: nodes wired by the integrated storage network.

Implements the four remote-access paths measured in Figure 12 (and used
by Figures 13 and 20):

* **ISP-F** — a local in-store processor requests a page from a *remote
  flash controller* directly over the integrated network; no host
  software anywhere.
* **H-F** — local *host software* issues the request; the remote side is
  still served entirely by its storage device; data returns over the
  integrated network and crosses the local PCIe once.
* **H-RH-F** — the request detours through the *remote host's software*
  (Ethernet RPC), which commands its flash; data still returns over the
  integrated network.
* **H-D** — like H-RH-F but served from the remote node's DRAM.

The request/response protocol is one
:class:`~repro.network.RpcChannel` over every node: endpoint 0 carries
requests; responses are spread over the endpoints after the
application block so that parallel serial lanes between nodes can all
be used (deterministic per-endpoint routing, Section 3.2.3).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..flash import PhysAddr
from ..io import IOKind, IORequest, RequestTracer, StageSpan
from ..network import (
    EthernetFabric,
    NetworkConfig,
    RpcChannel,
    StorageNetwork,
    Topology,
    ring,
)
from ..sim import Simulator, Store
from .node import BlueDBMNode

__all__ = ["BlueDBMCluster"]

REQUEST_EP = 0
_REQUEST_BYTES = 32  # a flash command: address + tag + reply route


class BlueDBMCluster:
    """N BlueDBM nodes + storage network + host Ethernet."""

    #: NIC interrupt + scheduler wakeup when an Ethernet RPC arrives.
    NIC_WAKEUP_NS = 15_000
    #: Kernel block-I/O tax of a cold synchronous flash read on the
    #: remote host: context switch out and back in around the device
    #: interrupt, request queueing, cold caches.  Calibrated so the
    #: H-RH-F path totals ~330 us as in Figure 12's tallest bar.
    REMOTE_BLOCKIO_NS = 100_000

    def __init__(self, sim: Simulator, n_nodes: int,
                 topology: Optional[Topology] = None,
                 network_config: Optional[NetworkConfig] = None,
                 n_endpoints: int = 4, app_endpoints: int = 0,
                 node_kwargs: Optional[dict] = None,
                 tracer: Optional[RequestTracer] = None):
        """``app_endpoints`` reserves endpoints 1..app_endpoints for
        applications (e.g. MapReduce shuffle); the cluster's own
        request/response protocol uses endpoint 0 plus the rest.

        ``tracer`` attaches unified-pipeline tracing to the four remote
        access paths: each becomes an :class:`~repro.io.IORequest` that
        travels with the protocol message, so remote flash service time
        lands on the same request the source issued."""
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if app_endpoints < 0:
            raise ValueError("negative app_endpoints")
        if n_endpoints < 2 + app_endpoints:
            raise ValueError(
                "need >= 2 endpoints beyond the reserved application "
                "endpoints (requests + responses)")
        self.sim = sim
        self.n_nodes = n_nodes
        self.tracer = tracer
        node_kwargs = node_kwargs or {}
        self.nodes: List[BlueDBMNode] = [
            BlueDBMNode(sim, node_id=i, **node_kwargs)
            for i in range(n_nodes)
        ]
        if topology is None:
            topology = (ring(n_nodes, lanes=4) if n_nodes >= 3
                        else _direct(n_nodes))
        self.topology = topology
        self.network = StorageNetwork(sim, topology,
                                      config=network_config,
                                      n_endpoints=n_endpoints)
        self.ethernet = EthernetFabric(sim, n_nodes)
        self.app_endpoints = app_endpoints
        # One channel over every node, so request numbering is global.
        self.rpc = RpcChannel(sim, self.network, range(n_nodes), REQUEST_EP,
                              range(1 + app_endpoints, n_endpoints),
                              self._serve)
        # Non-protocol Ethernet traffic (application messages) per node.
        self.app_inbox: List[Store] = [
            Store(sim, name=f"app-inbox-{n}") for n in range(n_nodes)]
        for node in range(n_nodes):
            sim.process(self._ethernet_service(node),
                        name=f"eth-service-{node}")

    @property
    def page_size(self) -> int:
        return self.nodes[0].geometry.page_size

    # ------------------------------------------------------------------
    # Remote flash/DRAM service (runs on every storage device)
    # ------------------------------------------------------------------
    def _serve(self, node_id: int, msg: Dict[str, Any]):
        """Serve one remote flash page request arriving on the request
        endpoint (remote DRAM goes host to host, by Ethernet)."""
        node = self.nodes[node_id]
        if msg["kind"] != "flash":
            raise ValueError(f"unknown request kind {msg['kind']!r}")
        data = yield from node.net_read(msg["addr"], request=msg["request"])
        yield from self.rpc.reply(node_id, msg, data, self.page_size)

    # -- tracing helpers -----------------------------------------------
    def _trace_start(self, kind: IOKind, addr: Any,
                     tenant: str) -> Optional[IORequest]:
        if self.tracer is None:
            return None
        return self.tracer.start(kind, addr, self.page_size, tenant=tenant)

    def _trace_finish(self, request: Optional[IORequest],
                      src: int, dst: int, crossings: int) -> None:
        """Annotate network propagation and complete the trace.

        Propagation is deterministic per route (Section 3.2.3), so the
        ``crossings`` of the integrated network a request made — 2 for
        a request + response round trip, 1 when only the reply crossed
        it — are recorded as the ``network`` annotation Figure 12 reads
        rather than as a timed span.
        """
        if not request:
            return
        request.annotate("network", crossings
                         * self.network.propagation_ns(src, dst))
        self.tracer.complete(request)

    # ------------------------------------------------------------------
    # Remote host service (Ethernet-reached, for H-RH-F / H-D)
    # ------------------------------------------------------------------
    def _ethernet_service(self, node_id: int):
        """Remote host software: take Ethernet RPCs, command storage.

        Messages that are not cluster-protocol requests (no ``kind``
        field) are application traffic and land in the node's
        :attr:`app_inbox` for whoever is listening (e.g. a MapReduce
        collector).
        """
        while True:
            message = yield from self.ethernet.receive(node_id)
            payload = message.payload
            if isinstance(payload, dict) and "kind" in payload:
                self.sim.process(
                    self._serve_via_host(node_id, payload),
                    name=f"eth-serve-{node_id}")
            else:
                yield self.app_inbox[node_id].put(message)

    def _serve_via_host(self, node_id: int, msg: Dict[str, Any]):
        """The generic-cluster data path the integrated network avoids.

        The remote *host software* performs the read: the data crosses
        the remote PCIe link up into host DRAM (a full HostInterface
        read), then is pushed back down over PCIe to be injected into
        the storage network toward the requester.  These two extra PCIe
        crossings plus the kernel costs are exactly what ISP-F (and H-F)
        skip.
        """
        node = self.nodes[node_id]
        io_req = msg["request"]
        # The Ethernet RPC's fixed latency is software/NIC/kernel time
        # (EthernetFabric), so this software span opens when the send
        # left the wire, ``RPC_LATENCY_NS`` before delivery, and runs on
        # through the NIC interrupt + scheduler wakeup.
        if io_req:
            io_req.enter("software",
                         self.sim.now - self.ethernet.RPC_LATENCY_NS)
        yield self.sim.timeout(self.NIC_WAKEUP_NS)
        if io_req:
            io_req.exit("software", self.sim.now)
        if msg["kind"] == "flash":
            data = yield from node.host_read(msg["addr"], request=io_req)
            # Kernel block-I/O overhead of the synchronous read.
            with StageSpan(self.sim, io_req, "software"):
                yield self.sim.timeout(self.REMOTE_BLOCKIO_NS)
        elif msg["kind"] == "dram":
            with StageSpan(self.sim, io_req, "software"):
                yield from node.cpu.compute(
                    node.host_config.software_request_ns)
            data = yield from node.dram.read(msg["page"])
        else:
            raise ValueError(f"unknown request kind {msg['kind']!r}")
        # Response software cost + push the page back into the device.
        with StageSpan(self.sim, io_req, "software"):
            yield from node.cpu.compute(node.host_config.software_request_ns)
        with StageSpan(self.sim, io_req, "pcie"):
            yield from node.pcie.host_to_device(self.page_size)
        yield from self.rpc.reply(node_id, msg, data, self.page_size)

    # ------------------------------------------------------------------
    # The four measured access paths (DES generators -> page data)
    # ------------------------------------------------------------------
    def isp_remote_flash(self, src: int, addr: PhysAddr):
        """ISP-F: in-store processor reads remote flash directly."""
        io_req = self._trace_start(IOKind.READ, addr, f"isp-n{src}")
        data = yield from self.rpc.call(
            src, addr.node, {"kind": "flash", "addr": addr},
            _REQUEST_BYTES, io_req)
        self._trace_finish(io_req, src, addr.node, crossings=2)
        return data

    def host_remote_flash(self, src: int, addr: PhysAddr):
        """H-F: local host software reads remote flash over the
        integrated network (one local software + PCIe crossing)."""
        node = self.nodes[src]
        io_req = self._trace_start(IOKind.READ, addr, f"host-n{src}")
        with StageSpan(self.sim, io_req, "software"):
            yield from node.cpu.compute(node.host_config.software_request_ns)
            yield self.sim.timeout(node.host_config.rpc_ns)
        data = yield from self.rpc.call(
            src, addr.node, {"kind": "flash", "addr": addr},
            _REQUEST_BYTES, io_req)
        with StageSpan(self.sim, io_req, "pcie"):
            yield from node.pcie.device_to_host(self.page_size)
        with StageSpan(self.sim, io_req, "interrupt"):
            yield self.sim.timeout(node.host_config.interrupt_ns)
        self._trace_finish(io_req, src, addr.node, crossings=2)
        return data

    def host_remote_via_host(self, src: int, addr: PhysAddr):
        """H-RH-F: request detours through the remote host's software."""
        return (yield from self._via_remote_host(
            src, addr.node, addr, {"kind": "flash", "addr": addr}))

    def host_remote_dram(self, src: int, dst: int, page: int):
        """H-D: like H-RH-F but served from the remote node's DRAM."""
        return (yield from self._via_remote_host(
            src, dst, page, {"kind": "dram", "page": page}))

    def _via_remote_host(self, src: int, dst: int, addr: Any,
                         message: Dict[str, Any]):
        """H-RH-F / H-D: local software, an Ethernet RPC to ``dst``'s
        host, the page back over the integrated network, then the local
        PCIe crossing and completion interrupt."""
        node = self.nodes[src]
        io_req = self._trace_start(IOKind.READ, addr, f"host-n{src}")
        with StageSpan(self.sim, io_req, "software"):
            yield from node.cpu.compute(node.host_config.software_request_ns)
        data = yield from self.rpc.call(src, dst, message, _REQUEST_BYTES,
                                        io_req, send=self.ethernet.send)
        with StageSpan(self.sim, io_req, "pcie"):
            yield from node.pcie.device_to_host(self.page_size)
        with StageSpan(self.sim, io_req, "interrupt"):
            yield self.sim.timeout(node.host_config.interrupt_ns)
        # The request went over Ethernet; only the reply crossed the
        # integrated network.
        self._trace_finish(io_req, src, dst, crossings=1)
        return data


def _direct(n_nodes: int) -> Topology:
    """Line topology for 1-2 node clusters (ring needs 3)."""
    topo = Topology(n_nodes)
    for i in range(n_nodes - 1):
        topo.connect(i, i + 1)
    return topo
