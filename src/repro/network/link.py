"""Serial links with token-based flow control (link layer, Section 3.2.2).

A link is unidirectional: the transmit side serializes one packet at a
time at the wire rate; the receive side holds packets in a bounded buffer.
Before transmitting, the sender must take a *token* (credit); the credit
is returned only when the receiver drains the packet from the buffer.
This "ensures that packets will not drop if the data rate is higher than
what the network can manage, or if the data cannot be received by the
destination node which is running slowly" — i.e. lossless backpressure
that propagates hop by hop.
"""

from __future__ import annotations

from typing import Dict

from ..sim import Counter, CreditPool, Resource, Simulator, Store
from .packet import NetworkConfig, Packet

__all__ = ["SerialLink"]


class SerialLink:
    """One direction of a physical cable between two storage devices."""

    def __init__(self, sim: Simulator, config: NetworkConfig,
                 name: str = ""):
        self.sim = sim
        self.config = config
        self.name = name
        self._tx = Resource(sim, capacity=1, name=f"{name}-tx")
        self._credits = CreditPool(sim, initial=config.link_credits,
                                   name=f"{name}-credits")
        self._rx_buffer = Store(sim, name=f"{name}-rx")
        #: ``serialize_ns`` per payload size: a link sees a handful of
        #: sizes (full chunks, message tails, control packets).
        self._serialize_ns: Dict[int, int] = {}
        # Payload bytes serialized onto this wire — every hop charges
        # its own link, so an h-hop message shows up here h times while
        # the endpoint counters see it exactly once at each end.
        self.payload_bytes = Counter(f"{name}-payload-bytes")

    def transmit(self, packet: Packet):
        """Send one packet (DES generator).

        Completes once the packet has been fully *serialized*; propagation
        to the far-side buffer continues in the background so back-to-back
        packets stream at the full wire rate (the 0.48 µs hop latency is
        pipelined, not added per packet).  Blocks first on flow-control
        credits (tokens = free far-side buffer slots), then on the
        transmitter being free.
        """
        yield self._credits.take(1)
        yield self._tx.request()
        size = packet.payload_bytes
        serialize_ns = self._serialize_ns.get(size)
        if serialize_ns is None:
            serialize_ns = self._serialize_ns[size] = (
                self.config.serialize_ns(size))
        try:
            yield self.sim.timeout(serialize_ns)
        finally:
            self._tx.release()
        # Propagation/SerDes latency, then a far-side buffer slot: a
        # timer, not a process, since nothing waits on it.  The buffer
        # is unbounded (the credits bound it), so the put never blocks;
        # FIFO order holds because the tx resource serializes packets
        # and the delay is constant.
        self.sim.timeout(self.config.hop_latency_ns).callbacks.append(
            lambda _event: self._rx_buffer.put_nowait(packet))
        self.payload_bytes.add(size)

    def receive(self):
        """Take the next packet off the receive buffer (DES generator).

        Returning the flow-control token here models the token-based
        scheme: tokens track free buffer slots on the receiving side.
        """
        packet = yield self._rx_buffer.get()
        self._credits.give(1)
        return packet
