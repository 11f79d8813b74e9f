"""Logical endpoints: cluster-wide FIFO send/receive (Section 3.2.1).

"Each endpoint exposes two interfaces, send and receive.  An in-store
processor can send data to a remote node by calling send with a pair of
data and destination node index, or receive data from remote nodes by
calling receive, which returns a pair of data and source node index.
These interfaces provide back pressure, so that each endpoint can be
treated like a FIFO interface across the whole cluster."

End-to-end flow control is optional per endpoint (Section 3.2.3): with it
on, a sender only transmits when the destination endpoint has buffer
space, at the price of credit-return latency; with it off, latency is
minimal but a non-draining receiver eventually blocks the network through
link-level backpressure.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional, Tuple

from ..sim import Counter, CreditPool, Simulator, Store
from .packet import NetworkConfig, Packet
from .switch import NodeSwitch

__all__ = ["Endpoint", "Message"]


class Message:
    """A received message: payload plus its source node."""

    __slots__ = ("src", "payload", "payload_bytes")

    def __init__(self, src: int, payload: Any, payload_bytes: int):
        self.src = src
        self.payload = payload
        self.payload_bytes = payload_bytes


class Endpoint:
    """One logical endpoint instance on one node.

    The same ``endpoint_id`` on every node forms one virtual channel; its
    routes are deterministic, so messages between any (src, dst) pair on
    one endpoint arrive in send order.
    """

    def __init__(self, sim: Simulator, network: "StorageNetwork",
                 node: int, endpoint_id: int, switch: NodeSwitch,
                 end_to_end_fc: bool = False):
        self.sim = sim
        self.network = network
        self.node = node
        self.endpoint_id = endpoint_id
        self.switch = switch
        self._queue = switch.register_endpoint(endpoint_id)
        config = network.config
        self._e2e_credits: Optional[CreditPool] = (
            CreditPool(sim, initial=config.endpoint_capacity,
                       name=f"e2e-n{node}ep{endpoint_id}")
            if end_to_end_fc else None)
        self._message_ids = itertools.count()
        self._partial: Dict[Tuple[int, int], int] = {}
        # Payload-byte counters: what end-to-end bandwidth accounting
        # (e.g. remote-tenant QoS) reconciles against.
        self.sent_bytes = Counter("sent-bytes")
        self.received_bytes = Counter("received-bytes")

    # -- send ---------------------------------------------------------------
    def send(self, dst: int, payload: Any, payload_bytes: int):
        """Send one message to node ``dst`` (DES generator).

        Large payloads are chunked into packets that pipeline across the
        network; the payload object itself rides the last chunk.
        Completes when the final chunk has been injected (serialized onto
        the first link), i.e. with FIFO backpressure semantics.
        """
        if payload_bytes < 0:
            raise ValueError("negative payload_bytes")
        config = self.network.config
        remote = self.network.endpoint(dst, self.endpoint_id)
        message_id = next(self._message_ids)
        chunk = config.max_packet_payload
        offsets = list(range(0, max(payload_bytes, 1), chunk))
        for i, offset in enumerate(offsets):
            is_last = i == len(offsets) - 1
            size = (min(chunk, payload_bytes - offset)
                    if payload_bytes else 0)
            packet = Packet(
                src=self.node, dst=dst, endpoint=self.endpoint_id,
                payload=payload if is_last else None,
                payload_bytes=size, last=is_last, message_id=message_id)
            if remote._e2e_credits is not None:
                yield remote._e2e_credits.take(1)
            yield from self.switch.inject(packet)
        self.sent_bytes.add(payload_bytes)

    # -- receive --------------------------------------------------------------
    def receive(self):
        """Receive the next complete message (DES generator).

        Reassembles chunked messages; chunks from different sources may
        interleave (different routes), but chunks of one (src, message)
        arrive in order on this endpoint's deterministic route.
        Returns a :class:`Message`.
        """
        while True:
            packet = yield self._queue.get()
            credits = self._e2e_credits
            if credits is not None:
                # The credit-return packet's flight time back to the
                # sender: a timer, since nothing waits on the return.
                self.sim.timeout(
                    self.network.propagation_ns(self.node, packet.src)
                ).callbacks.append(lambda _event: credits.give(1))
            key = (packet.src, packet.message_id)
            accumulated = self._partial.get(key, 0) + packet.payload_bytes
            if not packet.last:
                self._partial[key] = accumulated
                continue
            self._partial.pop(key, None)
            self.received_bytes.add(accumulated)
            return Message(packet.src, packet.payload, accumulated)

    @property
    def pending(self) -> int:
        """Packets waiting in this endpoint's receive buffer."""
        return len(self._queue)
