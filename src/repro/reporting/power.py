"""Power model: Table 3 and the appliance-vs-RAMCloud comparison.

Table 3 sums datasheet power: VC707 board 30 W, the two custom flash
boards 10 W, the Xeon host 200 W — 240 W per node, i.e. "BlueDBM adds
less than 20% of power consumption to the system".

The conclusion's economic claim — "an order of magnitude cheaper and
less power hungry than a cloud based system with enough DRAM to
accommodate 10TB-20TB of data" — is reproduced by
:func:`ramcloud_equivalent`: hosting the same dataset in DRAM requires
~50x more servers (50 GB DRAM each vs 1 TB flash each).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["PowerModel", "NodePower", "ramcloud_equivalent"]

GB = 1_000_000_000
TB = 1_000 * GB


@dataclass(frozen=True)
class NodePower:
    """Per-node component power in watts (Table 3 defaults)."""

    vc707_w: float = 30.0
    flash_boards_w: float = 10.0   # both custom flash cards
    xeon_server_w: float = 200.0

    @property
    def bluedbm_added_w(self) -> float:
        """What the BlueDBM storage device adds to a plain server."""
        return self.vc707_w + self.flash_boards_w

    @property
    def total_w(self) -> float:
        return self.bluedbm_added_w + self.xeon_server_w

    @property
    def added_fraction(self) -> float:
        """BlueDBM's share of node power (paper: < 20 %)."""
        return self.bluedbm_added_w / self.total_w

    def rows(self) -> Dict[str, float]:
        """Table 3's rows."""
        return {
            "VC707": self.vc707_w,
            "Flash Board x2": self.flash_boards_w,
            "Xeon Server": self.xeon_server_w,
            "Node Total": self.total_w,
        }


class PowerModel:
    """Cluster-level power accounting."""

    def __init__(self, n_nodes: int = 20):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.n_nodes = n_nodes
        self.node = NodePower()

    @property
    def cluster_w(self) -> float:
        return self.n_nodes * self.node.total_w

    @property
    def capacity_bytes(self) -> int:
        return self.n_nodes * TB      # 1 TB of flash per node


def ramcloud_equivalent(dataset_bytes: int) -> Dict[str, float]:
    """Size a RAMCloud-style cluster hosting ``dataset_bytes`` in DRAM.

    Each server holds 50 GB and draws 200 W plus 50 W for its DRAM.
    Returns server count and power, for comparison against a BlueDBM
    rack of the same capacity (the Section 1/8 cost argument: ~100
    servers with 128-256 GB DRAM for 5-20 TB datasets).
    """
    if dataset_bytes < 1:
        raise ValueError("dataset must be non-empty")
    servers = -(-dataset_bytes // (50 * GB))  # ceil
    return {
        "servers": float(servers),
        "power_w": servers * (200.0 + 50.0),
    }
