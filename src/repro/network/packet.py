"""Packets and network configuration for the integrated storage network.

The physical unit on the wire is a 128-bit (16-byte) flit; each flit
carries routing/virtual-channel overhead, which is why the paper sustains
8.2 Gbps of payload on a 10 Gbps link ("protocol overhead is under 18%",
Section 6.3).  We account that overhead analytically per packet instead of
simulating every flit: a packet of N payload bytes occupies
``N * (flit + overhead) / flit`` byte-times on the wire.

Large transfers are chunked into packets of ``max_packet_payload`` bytes
so multi-hop transfers pipeline across links without exploding the event
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ..sim import units

__all__ = ["NetworkConfig", "Packet"]


@dataclass(frozen=True)
class NetworkConfig:
    """Link and protocol parameters (paper values by default)."""

    link_gbps: float = 10.0            # physical serial link rate
    hop_latency_ns: int = 480          # 0.48 us per hop (Section 6.3)
    flit_bytes: int = 16               # 128-bit data beats
    flit_overhead_bytes: float = 3.5   # routing/VC overhead per flit (~18%)
    max_packet_payload: int = 512      # chunking granularity for big sends
    link_credits: int = 16             # token flow-control credits per link
    endpoint_capacity: int = 16        # receive buffer slots per endpoint

    def __post_init__(self):
        if self.link_gbps <= 0:
            raise ValueError("link_gbps must be positive")
        if self.flit_bytes < 1 or self.flit_overhead_bytes < 0:
            raise ValueError("bad flit parameters")
        if self.max_packet_payload < self.flit_bytes:
            raise ValueError("max_packet_payload smaller than one flit")
        if self.link_credits < 1 or self.endpoint_capacity < 1:
            raise ValueError("credits/capacity must be >= 1")

    @property
    def bytes_per_ns(self) -> float:
        """Raw wire rate in bytes/ns (10 Gbps -> 1.25)."""
        return units.gbps_to_bytes_per_ns(self.link_gbps)

    @property
    def protocol_efficiency(self) -> float:
        """Payload fraction of wire time (paper: ~0.82)."""
        return self.flit_bytes / (self.flit_bytes + self.flit_overhead_bytes)

    @property
    def payload_gbps(self) -> float:
        """Sustainable payload rate of one link in Gbps."""
        return self.link_gbps * self.protocol_efficiency

    def wire_bytes(self, payload_bytes: int) -> float:
        """Wire occupancy (bytes, incl. flit overhead) for a payload."""
        if payload_bytes < 0:
            raise ValueError("negative payload")
        flits = max(1, math.ceil(payload_bytes / self.flit_bytes))
        return flits * (self.flit_bytes + self.flit_overhead_bytes)

    def serialize_ns(self, payload_bytes: int) -> int:
        """Time to clock one packet's flits onto the wire."""
        return units.transfer_ns(
            int(round(self.wire_bytes(payload_bytes))), self.bytes_per_ns)


@dataclass(slots=True)
class Packet:
    """One network packet: a chunk of a message on a logical endpoint.

    ``payload`` may be real bytes (applications) or any object
    (control/synthetic traffic); ``payload_bytes`` is what timing uses.
    Packets carry no sequence number: links, switches and endpoints are
    FIFO, so send order on one route is arrival order.
    """

    src: int
    dst: int
    endpoint: int
    payload: Any
    payload_bytes: int
    last: bool = True            # final chunk of its message?
    message_id: int = 0

    def __post_init__(self):
        if self.payload_bytes < 0:
            raise ValueError("negative payload_bytes")
        if self.src < 0 or self.dst < 0 or self.endpoint < 0:
            raise ValueError("negative packet identifiers")
