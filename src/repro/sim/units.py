"""Unit helpers: the kernel keeps time in integer nanoseconds.

The paper quotes microseconds, Gbps and GB/s; these helpers convert both
ways so model parameters can be written in the paper's units.

Conventions
-----------
* ``GB/s`` is decimal (1e9 bytes/second), matching the paper's usage
  (e.g. "1.6GB/s" PCIe, "1.2GB/s" per flash card).
* ``Gbps`` is decimal bits (1e9 bits/second) as used for serial links.
"""

from __future__ import annotations

__all__ = [
    "US",
    "MS",
    "S",
    "GB",
    "seconds",
    "to_us",
    "to_ms",
    "to_s",
    "gbps_to_bytes_per_ns",
    "transfer_ns",
    "bandwidth_gbps",
    "bandwidth_gbytes",
]

US = 1_000
MS = 1_000_000
S = 1_000_000_000

GB = 1_000_000_000


def seconds(value: float) -> int:
    """Seconds -> integer nanoseconds."""
    return int(round(value * S))


def to_us(ns_value: int) -> float:
    """Nanoseconds -> microseconds."""
    return ns_value / US


def to_ms(ns_value: int) -> float:
    """Nanoseconds -> milliseconds."""
    return ns_value / MS


def to_s(ns_value: int) -> float:
    """Nanoseconds -> seconds."""
    return ns_value / S


def gbps_to_bytes_per_ns(gbps: float) -> float:
    """Link rate in Gbps -> bytes per nanosecond.

    10 Gbps == 1.25 bytes/ns.
    """
    return gbps / 8.0


def transfer_ns(num_bytes: int, bytes_per_ns: float) -> int:
    """Time to move ``num_bytes`` at ``bytes_per_ns``, at least 1 ns."""
    if bytes_per_ns <= 0:
        raise ValueError(f"non-positive bandwidth {bytes_per_ns}")
    if num_bytes <= 0:
        return 0
    return max(1, int(round(num_bytes / bytes_per_ns)))


def bandwidth_gbytes(num_bytes: int, elapsed_ns: int) -> float:
    """Observed bandwidth in GB/s for ``num_bytes`` over ``elapsed_ns``."""
    if elapsed_ns <= 0:
        return 0.0
    return num_bytes / elapsed_ns  # bytes/ns == GB/s


def bandwidth_gbps(num_bytes: int, elapsed_ns: int) -> float:
    """Observed bandwidth in Gbps for ``num_bytes`` over ``elapsed_ns``."""
    return bandwidth_gbytes(num_bytes, elapsed_ns) * 8.0
