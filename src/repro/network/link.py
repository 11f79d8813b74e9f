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

from typing import Optional

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
        try:
            yield self.sim.timeout(self.config.serialize_ns(
                packet.payload_bytes))
        finally:
            self._tx.release()
        self.sim.process(self._propagate(packet), name="link-prop")
        self.payload_bytes.add(packet.payload_bytes)

    def _propagate(self, packet: Packet):
        """Propagation/SerDes latency, then occupy a far-side buffer slot.

        FIFO order holds because serialization is serialized by the tx
        resource and the propagation delay is constant.
        """
        yield self.sim.timeout(self.config.hop_latency_ns)
        yield self._rx_buffer.put(packet)

    def receive(self):
        """Take the next packet off the receive buffer (DES generator).

        Returning the flow-control token here models the token-based
        scheme: tokens track free buffer slots on the receiving side.
        """
        packet = yield self._rx_buffer.get()
        self._credits.give(1)
        return packet
