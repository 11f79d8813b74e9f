"""Host-side Ethernet baseline (what BlueDBM's integrated network avoids).

The paper: "we could have also measured the accesses to remote servers via
Ethernet, but that latency is at least 100x of the integrated network"
(Section 6.4).  The baseline configurations (H-RH-F, RAMCloud-style
DRAM+miss experiments) route requests through remote *host software* over
a conventional NIC and kernel stack; this model captures that cost:

* fixed per-message software/NIC/kernel latency (45 µs one way — a
  fast kernel TCP stack of the era; ~100x the 0.48 µs hop),
* 10 GbE serialization,
* FIFO per (src, dst) ordering.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..sim import Resource, Simulator, Store, units
from .endpoint import Message

__all__ = ["EthernetFabric"]


class EthernetFabric:
    """A conventional datacenter network between host servers."""

    #: One-way software + NIC + kernel latency per message.
    RPC_LATENCY_NS = 45 * units.US
    #: 10 GbE serialization rate.
    BYTES_PER_NS = units.gbps_to_bytes_per_ns(10.0)

    def __init__(self, sim: Simulator, n_nodes: int):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.sim = sim
        self.n_nodes = n_nodes
        # One NIC per node serializes its outbound traffic.
        self._nics = [Resource(sim, capacity=1, name=f"nic-{n}")
                      for n in range(n_nodes)]
        self._queues: Dict[int, Store] = {
            n: Store(sim, name=f"eth-q{n}") for n in range(n_nodes)}

    def send(self, src: int, dst: int, payload: Any, payload_bytes: int):
        """Send a message host-to-host (DES generator).

        Completes when the message is on the wire; delivery happens after
        the software + propagation latency.
        """
        self._check(src)
        self._check(dst)
        nic = self._nics[src]
        yield nic.request()
        try:
            yield self.sim.timeout(
                units.transfer_ns(payload_bytes, self.BYTES_PER_NS))
        finally:
            nic.release()
        # Software + propagation latency, then the destination queue: a
        # timer, not a process, since nothing waits on delivery.  The
        # queue is unbounded and the latency constant, so messages on
        # one (src, dst) pair arrive in send order.
        message = Message(src, payload, payload_bytes)
        queue = self._queues[dst]
        self.sim.timeout(self.RPC_LATENCY_NS).callbacks.append(
            lambda _event: queue.put_nowait(message))

    def receive(self, node: int):
        """Receive the next message addressed to ``node`` (generator)."""
        self._check(node)
        message = yield self._queues[node].get()
        return message

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range")
