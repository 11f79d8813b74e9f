"""Integrated storage network (Section 3.2).

* :mod:`~repro.network.packet` — packets and link/protocol parameters.
* :mod:`~repro.network.link` — serial links with token flow control.
* :mod:`~repro.network.topology` — ring/line/star/mesh/fat-tree builders
  with the 8-ports-per-node constraint and config-file I/O.
* :mod:`~repro.network.routing` — deterministic per-endpoint routing.
* :mod:`~repro.network.switch` — per-node internal/external switches.
* :mod:`~repro.network.endpoint` — logical endpoints with cluster-wide
  FIFO semantics and optional end-to-end flow control.
* :mod:`~repro.network.fabric` — :class:`StorageNetwork`, the assembled
  rack fabric.
* :mod:`~repro.network.rpc` — :class:`RpcChannel`, the one remote
  request/response protocol over logical endpoints.
* :mod:`~repro.network.ethernet` — conventional host-network baseline.
"""

from .endpoint import Endpoint, Message
from .ethernet import EthernetFabric
from .fabric import StorageNetwork
from .link import SerialLink
from .packet import NetworkConfig, Packet
from .routing import RoutingTable, build_routing_tables, shortest_hop_counts
from .rpc import RpcChannel
from .switch import NodeSwitch
from .topology import (
    Cable,
    Topology,
    fat_tree,
    fully_connected,
    line,
    mesh2d,
    ring,
    star,
)

__all__ = [
    "NetworkConfig",
    "Packet",
    "SerialLink",
    "NodeSwitch",
    "Endpoint",
    "Message",
    "StorageNetwork",
    "EthernetFabric",
    "RpcChannel",
    "RoutingTable",
    "build_routing_tables",
    "shortest_hop_counts",
    "Cable",
    "Topology",
    "ring",
    "line",
    "star",
    "mesh2d",
    "fully_connected",
    "fat_tree",
]
