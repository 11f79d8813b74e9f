"""Declarative scenario specs: the front door to the whole simulator.

Every table, figure and extension in this repo is some combination of a
*machine* (geometry, timings, host, network, topology, node count) and a
*workload* (who issues which reads, how hard, under which QoS policy).
Before this module existed, each benchmark and example hand-assembled
``Simulator`` + ``BlueDBMCluster`` + ad-hoc closed-loop drivers; now the
combination is data: a frozen :class:`ScenarioSpec` that validates at
construction (not mid-simulation), round-trips through plain dicts /
JSON, and is executed by :class:`~repro.api.session.Session`.

The specs compose the existing frozen config dataclasses —
:class:`~repro.flash.FlashGeometry`, :class:`~repro.flash.FlashTiming`,
:class:`~repro.host.HostConfig`, :class:`~repro.network.NetworkConfig` —
and add the pieces that used to live in benchmark files: topology
choice, tenant mixes, per-tenant QoS parameters and RNG discipline.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..dvol.placement import PLACEMENT_MODES
from ..faults import FaultPlan
from ..flash import FlashGeometry, FlashTiming
from ..ftl import ALLOCATION_MODES, WEAR_LEVELING_MODES
from ..host import HostConfig
from ..io import POLICIES
from ..network import NetworkConfig, Topology, fully_connected

__all__ = [
    "BENCH_GEOMETRY",
    "ONE_CARD_GEOMETRY",
    "THROTTLED_TIMING",
    "TopologySpec",
    "TenantSpec",
    "VolumeSpec",
    "DistributedVolumeSpec",
    "FaultSpec",
    "WorkloadSpec",
    "ScenarioSpec",
    "SpecError",
]

#: The shared scaled-down-but-faithful experiment geometry: the paper's
#: bus/chip structure (8x8 per card, two cards, 8 KB pages) with fewer
#: blocks so setup stays fast.  Bandwidth and latency are rate-based, so
#: results match the full-size :data:`~repro.flash.DEFAULT_GEOMETRY`.
#: Every benchmark, example and the CLI demo build on this one spec.
BENCH_GEOMETRY = FlashGeometry(buses_per_card=8, chips_per_bus=8,
                               blocks_per_chip=16, pages_per_block=32,
                               page_size=8192, cards_per_node=2)

#: Single flash board (Figure 21's setup): 8 buses -> 1.2 GB/s ceiling.
ONE_CARD_GEOMETRY = dataclasses.replace(BENCH_GEOMETRY, cards_per_node=1)

#: Throttles the node to the commodity SSD's 600 MB/s by capping each
#: card's aurora link at 0.3 GB/s (Section 7.1's "Throttled BlueDBM").
THROTTLED_TIMING = FlashTiming(aurora_bytes_per_ns=0.3)


class SpecError(ValueError):
    """A scenario/workload spec is invalid (raised at construction)."""


# ----------------------------------------------------------------------
# serialization helpers
# ----------------------------------------------------------------------
def _opt_dict(value) -> Optional[dict]:
    return None if value is None else dataclasses.asdict(value)


def _opt_load(cls, value):
    if value is None:
        return None
    if isinstance(value, cls):
        return value
    return cls(**value)


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
_TOPOLOGY_KINDS = ("auto", "fully_connected", "custom")


@dataclass(frozen=True)
class TopologySpec:
    """How the storage network wires the nodes together.

    ``auto`` keeps the cluster's historical default (a 4-lane ring for
    three or more nodes, a line otherwise); ``fully_connected`` cables
    every pair once.  ``custom`` wires exactly the cable list in
    ``links``, which can express any other wiring — this is how
    Figure 13 gives each remote node its own parallel serial lanes.
    """

    kind: str = "auto"
    links: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in _TOPOLOGY_KINDS:
            raise SpecError(f"unknown topology kind {self.kind!r}; "
                            f"expected one of {_TOPOLOGY_KINDS}")
        if self.kind == "custom" and not self.links:
            raise SpecError("custom topology needs at least one link")
        # A cable list the chosen kind would silently ignore is a spec
        # error.
        if self.links and self.kind != "custom":
            raise SpecError(
                f"topology kind {self.kind!r} does not use links")
        # Normalize links (JSON round-trips lists; specs store tuples).
        object.__setattr__(self, "links",
                           tuple((int(a), int(b)) for a, b in self.links))

    def build(self, n_nodes: int) -> Optional[Topology]:
        """Materialize the :class:`~repro.network.Topology` (None=auto)."""
        if self.kind == "auto":
            return None
        if self.kind == "fully_connected":
            return fully_connected(n_nodes)
        topo = Topology(n_nodes)
        for a, b in self.links:
            if not (0 <= a < n_nodes and 0 <= b < n_nodes):
                raise SpecError(
                    f"link ({a}, {b}) outside 0..{n_nodes - 1}")
            topo.connect(a, b)
        return topo

    def to_dict(self) -> dict:
        return {"kind": self.kind,
                "links": [list(l) for l in self.links]}

    @classmethod
    def from_dict(cls, data: dict) -> "TopologySpec":
        data = dict(data)
        data["links"] = tuple(tuple(l) for l in data.get("links", ()))
        return cls(**data)


# ----------------------------------------------------------------------
# volume
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VolumeSpec:
    """One FTL-backed :class:`~repro.volume.LogicalVolume` per node.

    Tenants with ``access="volume"`` address *logical* pages; the
    volume's host-side FTL maps them onto physical flash.

    * ``overprovision`` — physical capacity held back as GC spare
      (logical capacity is ``pages_per_node * (1 - overprovision)``);
    * ``allocation`` — ``sequential`` (stripe-adjacent write points,
      the mode that makes logically-sequential I/O coalescible) or
      ``striped`` (the allocator's plain chip rotation);
    * ``fill`` — fraction of each volume tenant's LBA window mapped
      before the workload starts (functional prefill: real physical
      locations, zero simulated time) — the steady-state utilization
      knob the ``gc_steady`` experiment sweeps;
    * ``gc_low_watermark`` — free-block floor below which writes
      trigger greedy GC;
    * ``gc_priority`` / ``gc_weight`` / ``gc_rate_mbps`` /
      ``gc_burst_kb`` — QoS identity of the dedicated splitter port GC
      relocation traffic rides (admission label ``volume-gc``).
    """

    overprovision: float = 0.25
    allocation: str = "sequential"
    fill: float = 0.0
    gc_low_watermark: int = 2
    gc_priority: int = 0
    gc_weight: Optional[float] = None
    gc_rate_mbps: Optional[float] = None
    gc_burst_kb: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.overprovision < 1.0:
            raise SpecError(f"volume overprovision must be in [0, 1), "
                            f"got {self.overprovision}")
        if self.allocation not in ALLOCATION_MODES:
            raise SpecError(
                f"unknown volume allocation mode {self.allocation!r}; "
                f"expected one of {ALLOCATION_MODES}")
        if not 0.0 <= self.fill <= 1.0:
            raise SpecError(f"volume fill must be in [0, 1], "
                            f"got {self.fill}")
        if self.gc_low_watermark < 1:
            raise SpecError("volume gc_low_watermark must be >= 1")
        if self.gc_weight is not None and self.gc_weight <= 0:
            raise SpecError(f"volume gc_weight must be > 0, "
                            f"got {self.gc_weight}")
        if self.gc_rate_mbps is not None and self.gc_rate_mbps <= 0:
            raise SpecError(f"volume gc_rate_mbps must be > 0, "
                            f"got {self.gc_rate_mbps}")
        if self.gc_burst_kb is not None:
            if self.gc_burst_kb <= 0:
                raise SpecError(f"volume gc_burst_kb must be > 0, "
                                f"got {self.gc_burst_kb}")
            if self.gc_rate_mbps is None:
                raise SpecError("volume gc_burst_kb without gc_rate_mbps "
                                "has no meaning (a burst caps a rate)")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "VolumeSpec":
        return cls(**data)


# ----------------------------------------------------------------------
# distributed volume
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DistributedVolumeSpec:
    """One cluster-wide :class:`~repro.dvol.ShardedVolume`.

    Tenants with ``access="dvol"`` address one logical LPN space that
    the placement planner stripes (or hashes) across ``shards``
    per-node :class:`~repro.volume.LogicalVolume` shards; pages on
    other nodes are reached through the per-node routing tier over the
    storage network.

    * ``shards`` — how many nodes hold a shard (nodes ``0 ..
      shards-1``; must not exceed the scenario's node count);
    * ``placement`` — ``striped`` (round-robin chunk dealing) or
      ``hashed`` (keyed per-round permutation; decorrelates shard load
      for strided access while covering every shard each round);
    * ``stripe_chunk_pages`` — consecutive LPNs kept on one shard; the
      run length both coalescers can merge;
    * ``remote_coalesce`` — stage remote reads in a slot-paced
      :class:`~repro.flash.Coalescer` at the destination's
      network service port, merging same-source stripe-adjacent runs
      into multi-page commands (up to ``remote_coalesce_max_pages``);
    * ``remote_in_flight`` — the service port's slot cap; small values
      make the coalescer's slot pacing bind (arrivals accumulate and
      merge while slots are busy);
    * ``volume`` — the per-shard :class:`VolumeSpec` knobs
      (overprovision, allocation, fill, GC QoS), applied identically
      to every shard.
    """

    shards: int = 2
    placement: str = "striped"
    stripe_chunk_pages: int = 8
    hash_seed: int = 0
    remote_coalesce: bool = False
    remote_coalesce_max_pages: int = 8
    remote_in_flight: int = 8
    volume: VolumeSpec = field(default_factory=VolumeSpec)

    def __post_init__(self):
        if isinstance(self.volume, dict):
            object.__setattr__(self, "volume",
                               VolumeSpec.from_dict(self.volume))
        if self.shards < 1:
            raise SpecError(f"dvol shards must be >= 1, "
                            f"got {self.shards}")
        if self.placement not in PLACEMENT_MODES:
            raise SpecError(
                f"unknown dvol placement {self.placement!r}; expected "
                f"one of {PLACEMENT_MODES}")
        if self.stripe_chunk_pages < 1:
            raise SpecError(f"dvol stripe_chunk_pages must be >= 1, "
                            f"got {self.stripe_chunk_pages}")
        if self.remote_in_flight < 1:
            raise SpecError(f"dvol remote_in_flight must be >= 1, "
                            f"got {self.remote_in_flight}")
        if self.remote_coalesce_max_pages < 1:
            raise SpecError(f"dvol remote_coalesce_max_pages must be "
                            f">= 1, got {self.remote_coalesce_max_pages}")
        if self.remote_coalesce and self.remote_coalesce_max_pages < 2:
            raise SpecError(
                "remote coalescing merges at least two pages per "
                "command; remote_coalesce=True needs "
                "remote_coalesce_max_pages >= 2")

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["volume"] = self.volume.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DistributedVolumeSpec":
        data = dict(data)
        if isinstance(data.get("volume"), dict):
            data["volume"] = VolumeSpec.from_dict(data["volume"])
        return cls(**data)


# ----------------------------------------------------------------------
# faults / reliability
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec:
    """Deterministic fault injection and the reliability machinery.

    Absent (the default) the scenario runs the ideal-hardware model and
    every result stays byte-identical to a spec without this class.
    Present, each node gets a :class:`~repro.faults.FaultInjector`
    seeded from ``seed``: every fault decision is a pure hash of
    (seed, operation kind, physical identity, per-entity ordinal), so
    the schedule is identical across reruns and worker counts.

    * ``program_fail_rate`` / ``erase_fail_rate`` — per-operation
      failure probabilities, optionally gated to the burst window
      ``[window_start_ns, window_end_ns)``.  Failed programs consume
      the page; the volume write path verifies, rewrites to a fresh
      page and marks the block suspect (retired at its next erase).
    * ``wear_ber`` / ``wear_ber_onset`` — extra uncorrectable-read
      probability ramping linearly from 0 at ``onset`` (fraction of
      rated endurance consumed) to ``wear_ber`` at end of life.
    * ``fail_chip`` / ``fail_chip_after_ns`` — whole-chip death: from
      the given time the chip refuses programs/erases (reads still
      work — stored charge survives).  Pair with
      :meth:`~repro.ftl.core.FtlCore.evacuate_chip`.
    * ``wear_leveling`` / ``wl_spread_threshold`` — the FTL's static
      wear-leveling mode: ``static`` migrates the coldest full block
      through GC whenever the erase-count spread exceeds the threshold.
    * ``endurance`` — overrides the device's rated program/erase
      cycles (default 3000); lifetime experiments shrink it so blocks
      die within simulated reach.
    """

    seed: int = 0
    program_fail_rate: float = 0.0
    erase_fail_rate: float = 0.0
    window_start_ns: Optional[int] = None
    window_end_ns: Optional[int] = None
    wear_ber: float = 0.0
    wear_ber_onset: float = 0.75
    fail_chip: Optional[Tuple[int, int, int]] = None
    fail_chip_after_ns: int = 0
    wear_leveling: str = "none"
    wl_spread_threshold: int = 8
    endurance: Optional[int] = None

    def __post_init__(self):
        for attr in ("program_fail_rate", "erase_fail_rate", "wear_ber"):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise SpecError(f"fault {attr} must be in [0, 1], "
                                f"got {value}")
        if not 0.0 <= self.wear_ber_onset < 1.0:
            raise SpecError(f"fault wear_ber_onset must be in [0, 1), "
                            f"got {self.wear_ber_onset}")
        if self.window_start_ns is not None and self.window_start_ns < 0:
            raise SpecError("fault window_start_ns must be >= 0")
        if (self.window_start_ns is not None
                and self.window_end_ns is not None
                and self.window_end_ns <= self.window_start_ns):
            raise SpecError("fault window_end_ns must exceed "
                            "window_start_ns")
        if self.fail_chip is not None:
            chip = tuple(int(v) for v in self.fail_chip)
            if len(chip) != 3 or any(v < 0 for v in chip):
                raise SpecError(
                    f"fault fail_chip must be a (card, bus, chip) "
                    f"triple of non-negative ints, got {self.fail_chip}")
            object.__setattr__(self, "fail_chip", chip)
        if self.fail_chip_after_ns < 0:
            raise SpecError("fault fail_chip_after_ns must be >= 0")
        if self.wear_leveling not in WEAR_LEVELING_MODES:
            raise SpecError(
                f"unknown wear_leveling mode {self.wear_leveling!r}; "
                f"expected one of {WEAR_LEVELING_MODES}")
        if self.wl_spread_threshold < 1:
            raise SpecError("fault wl_spread_threshold must be >= 1")
        if self.endurance is not None and self.endurance < 1:
            raise SpecError("fault endurance must be >= 1")

    def build_plan(self, seed_override: Optional[int] = None) -> FaultPlan:
        """The pure :class:`~repro.faults.FaultPlan` these knobs name."""
        return FaultPlan(
            seed=self.seed if seed_override is None else seed_override,
            program_fail_rate=self.program_fail_rate,
            erase_fail_rate=self.erase_fail_rate,
            window_start_ns=self.window_start_ns,
            window_end_ns=self.window_end_ns,
            wear_ber=self.wear_ber,
            wear_ber_onset=self.wear_ber_onset,
            fail_chip=self.fail_chip,
            fail_chip_after_ns=self.fail_chip_after_ns,
        )

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        if self.fail_chip is not None:
            data["fail_chip"] = list(self.fail_chip)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        data = dict(data)
        if data.get("fail_chip") is not None:
            data["fail_chip"] = tuple(data["fail_chip"])
        return cls(**data)


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------
#: The splitter's fixed ports a tenant can drive locally, the
#: cluster-level remote path (ISP-F over the integrated network),
#: ``volume`` — logical-block I/O through the node's FTL-backed
#: :class:`~repro.volume.LogicalVolume` on a dedicated port — and
#: ``dvol`` — logical-block I/O against the cluster-wide
#: :class:`~repro.dvol.ShardedVolume`, remote pages routed over the
#: storage network.
_ACCESS_KINDS = ("isp", "host", "net", "remote_isp", "volume", "dvol")
#: Access kinds whose traffic rides the host write path and may
#: therefore carry a write mix (``write_fraction`` > 0).
_WRITE_CAPABLE = ("host", "volume", "dvol")
#: Splitter port names that accept per-tenant QoS parameters.
_QOS_PORTS = ("isp", "host", "net")
_RNG_MODES = ("per_worker", "shared")
_PATTERNS = ("random", "sequential")


@dataclass(frozen=True)
class TenantSpec:
    """One class of closed-loop traffic in a workload mix.

    ``workers`` generators loop page reads until the workload window
    closes.  ``access`` picks the path: the node's three splitter
    ports (``isp`` / ``host`` / ``net``) or ``remote_isp`` — ISP-F reads
    of node ``target``'s flash over the integrated network.

    ``pattern`` chooses the address stream: ``random`` (the default —
    every read draws from the tenant's RNG) or ``sequential`` — each
    worker walks consecutive striped indices from its own offset, the
    access shape that the splitter's coalescing stage merges into
    multi-page commands.

    RNG discipline is part of the spec because it decides reproducibility:
    ``per_worker`` gives worker *i* its own ``Random(seed_base + i)``
    (Figure 13's scheme); ``shared`` draws from one workload-wide stream
    (the QoS scenario's scheme).

    ``priority`` / ``deadline_ns`` / ``max_in_flight`` program the
    splitter port's QoS parameters, interpreted by the scenario's
    ``splitter_policy`` (a :data:`repro.io.POLICIES` discipline).
    ``weight`` feeds weighted-fair-share admission (``wfq``);
    ``rate_mbps`` / ``burst_kb`` feed token-bucket rate limiting
    (``token-bucket``) — a rate without a burst defaults to a 64 KiB
    burst.  Policies that don't use a parameter ignore it, so one
    tenant mix runs unchanged under every discipline.
    """

    name: str
    access: str = "host"
    workers: int = 1
    node: int = 0
    target: Optional[int] = None
    addr_space: Optional[int] = None
    software_path: bool = True
    pattern: str = "random"
    write_fraction: float = 0.0
    rng: str = "per_worker"
    seed_base: int = 0
    max_in_flight: Optional[int] = None
    priority: Optional[int] = None
    deadline_ns: Optional[int] = None
    weight: float = 1.0
    rate_mbps: Optional[float] = None
    burst_kb: Optional[float] = None

    def __post_init__(self):
        if not self.name:
            raise SpecError("tenant needs a non-empty name")
        if self.access not in _ACCESS_KINDS:
            raise SpecError(f"unknown access kind {self.access!r}; "
                            f"expected one of {_ACCESS_KINDS}")
        if self.workers < 1:
            raise SpecError(f"tenant {self.name!r}: workers must be >= 1, "
                            f"got {self.workers}")
        if self.node < 0:
            raise SpecError(f"tenant {self.name!r}: negative node")
        if self.rng not in _RNG_MODES:
            raise SpecError(f"tenant {self.name!r}: rng must be one of "
                            f"{_RNG_MODES}, got {self.rng!r}")
        if self.pattern not in _PATTERNS:
            raise SpecError(f"tenant {self.name!r}: pattern must be one "
                            f"of {_PATTERNS}, got {self.pattern!r}")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise SpecError(
                f"tenant {self.name!r}: write_fraction must be in "
                f"[0, 1], got {self.write_fraction}")
        if self.write_fraction > 0 and self.access not in _WRITE_CAPABLE:
            raise SpecError(
                f"tenant {self.name!r}: write mixes ride the host write "
                f"path; access must be one of {_WRITE_CAPABLE} "
                f"(got {self.access!r})")
        if self.access in ("volume", "dvol") and self.name in _QOS_PORTS:
            # A volume tenant owns a dedicated splitter port labeled by
            # its name; a fixed-port name would merge its scheduling
            # and accounting with unrelated traffic on that port.
            raise SpecError(
                f"{self.access} tenant cannot take a fixed splitter "
                f"port name {_QOS_PORTS}; got {self.name!r}")
        if self.addr_space is not None and self.addr_space < 1:
            raise SpecError(f"tenant {self.name!r}: addr_space must be "
                            f">= 1")
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise SpecError(f"tenant {self.name!r}: max_in_flight must "
                            f"be >= 1")
        if self.deadline_ns is not None and self.deadline_ns <= 0:
            raise SpecError(f"tenant {self.name!r}: deadline_ns must be "
                            f"positive")
        if self.weight <= 0:
            raise SpecError(f"tenant {self.name!r}: weight must be > 0, "
                            f"got {self.weight}")
        if self.rate_mbps is not None and self.rate_mbps <= 0:
            raise SpecError(f"tenant {self.name!r}: rate_mbps must be "
                            f"> 0, got {self.rate_mbps}")
        if self.burst_kb is not None:
            if self.burst_kb <= 0:
                raise SpecError(f"tenant {self.name!r}: burst_kb must be "
                                f"> 0, got {self.burst_kb}")
            if self.rate_mbps is None:
                raise SpecError(
                    f"tenant {self.name!r}: burst_kb without rate_mbps "
                    f"has no meaning (a burst caps a rate)")
        elif self.rate_mbps is not None:
            object.__setattr__(self, "burst_kb", 64.0)
        if self.access == "remote_isp" and self.target is None:
            raise SpecError(f"tenant {self.name!r}: remote_isp access "
                            f"needs a target node")
        if self.has_qos and self.access not in ("volume", "dvol") and (
                self.name not in _QOS_PORTS or self.access != self.name):
            # QoS parameters program the splitter port the tenant's own
            # traffic uses; a name/access mismatch would silently boost
            # an unrelated port.  Volume tenants are exempt: they get a
            # dedicated port named after them.
            raise SpecError(
                f"tenant {self.name!r} sets splitter QoS parameters, so "
                f"it must be named after — and access — one of the "
                f"splitter ports {_QOS_PORTS} (access={self.access!r})")
        if self.has_policy_qos and self.access in _QOS_PORTS and (
                self.name not in _QOS_PORTS or self.access != self.name):
            # weight/rate/burst are keyed by the admission-stage tenant
            # label, which for local port traffic is the port name.
            raise SpecError(
                f"tenant {self.name!r} sets weight/rate QoS on a local "
                f"port, so it must be named after — and access — one of "
                f"the splitter ports {_QOS_PORTS} "
                f"(access={self.access!r})")

    @property
    def has_qos(self) -> bool:
        return (self.max_in_flight is not None
                or self.priority is not None
                or self.deadline_ns is not None)

    @property
    def has_policy_qos(self) -> bool:
        """True when the tenant programs admission-policy parameters."""
        return self.weight != 1.0 or self.rate_mbps is not None

    def sched_label(self) -> str:
        """The tenant label this traffic is scheduled/accounted under.

        Local port traffic is labeled by the port (``isp``/``host``/
        ``net``); remote ISP-F reads carry ``isp-n<source>`` end to end;
        volume and dvol tenants own a port named after themselves (a
        dvol tenant's label also rides its remote requests, so
        destination splitters schedule them under it).
        """
        if self.access == "remote_isp":
            return f"isp-n{self.node}"
        if self.access in ("volume", "dvol"):
            return self.name
        return self.access

    def qos_kwargs(self) -> Dict[str, Any]:
        """The ``FlashSplitter.add_port`` keyword overrides this tenant
        programs (only the explicitly-set ones)."""
        out: Dict[str, Any] = {}
        if self.max_in_flight is not None:
            out["max_in_flight"] = self.max_in_flight
        if self.priority is not None:
            out["priority"] = self.priority
        if self.deadline_ns is not None:
            out["deadline_ns"] = self.deadline_ns
        return out

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TenantSpec":
        return cls(**data)


@dataclass(frozen=True)
class WorkloadSpec:
    """A closed-loop, multi-tenant read workload over a fixed window.

    ``drain=False`` cuts the simulation off exactly at ``duration_ns``
    (bandwidth methodology: completions before the deadline count) —
    Figure 13's scheme.  ``drain=True`` stops *issuing* at the deadline
    but runs every in-flight request to completion — the QoS scenario's
    scheme, where tail latency of the last victims is the point.

    ``queue_depth`` sets how many requests each foreground worker keeps
    in flight.  The default (1) is the seed's synchronous closed loop —
    issue, wait, repeat; deeper queues run every access kind through
    :class:`~repro.api.session.Session`'s any-order process window,
    which is what saturates the card.

    ``arrival="poisson"`` switches every tenant from the closed loop to
    an *open-loop* Poisson arrival process: requests arrive on their
    own clock at ``arrival_rate_rps`` requests/second regardless of
    completions (the millions-of-users shape — the superposition of
    many thin independent sessions *is* Poisson, so one process stands
    in for all of them).

    Open-loop arrivals are fire-and-forget: with ``drain=False`` the
    run cuts off at ``duration_ns`` (completions before the deadline
    count), with ``drain=True`` every in-flight request finishes.
    """

    duration_ns: int
    tenants: Tuple[TenantSpec, ...]
    seed: int = 1234
    drain: bool = False
    queue_depth: int = 1
    arrival: Optional[str] = None
    arrival_rate_rps: float = 0.0

    def __post_init__(self):
        if self.duration_ns <= 0:
            raise SpecError(f"duration_ns must be positive, "
                            f"got {self.duration_ns}")
        if self.queue_depth < 1:
            raise SpecError(f"queue_depth must be >= 1, "
                            f"got {self.queue_depth}")
        if self.arrival is not None:
            if self.arrival != "poisson":
                raise SpecError(
                    f"unknown arrival process {self.arrival!r} "
                    f"(expected None or 'poisson')")
            if self.arrival_rate_rps <= 0:
                raise SpecError(
                    f"arrival workloads need arrival_rate_rps > 0, "
                    f"got {self.arrival_rate_rps}")
        tenants = tuple(
            t if isinstance(t, TenantSpec) else TenantSpec(**t)
            for t in self.tenants)
        object.__setattr__(self, "tenants", tenants)
        if not tenants:
            raise SpecError("workload needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate tenant names: {names}")

    def to_dict(self) -> dict:
        data = {"duration_ns": self.duration_ns,
                "tenants": [t.to_dict() for t in self.tenants],
                "seed": self.seed, "drain": self.drain,
                "queue_depth": self.queue_depth}
        if self.arrival is not None:
            data.update({"arrival": self.arrival,
                         "arrival_rate_rps": self.arrival_rate_rps})
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        data = dict(data)
        data["tenants"] = tuple(
            TenantSpec.from_dict(t) if isinstance(t, dict) else t
            for t in data.get("tenants", ()))
        return cls(**data)


# ----------------------------------------------------------------------
# scenario
# ----------------------------------------------------------------------
def _partition_windows(tenants, logical: int,
                       where: str) -> Dict[str, Tuple[int, int]]:
    """Partition ``logical`` pages into per-tenant ``(start, size)``
    windows, in spec order.

    Explicit ``addr_space`` values are honored; tenants without one
    split the remaining capacity evenly.  Raises :class:`SpecError`
    when a window is empty or the windows overcommit the space;
    ``where`` names that space in the message.
    """
    explicit = sum(t.addr_space for t in tenants
                   if t.addr_space is not None)
    defaults = sum(1 for t in tenants if t.addr_space is None)
    share = (logical - explicit) // defaults if defaults else 0
    out: Dict[str, Tuple[int, int]] = {}
    offset = 0
    for tenant in tenants:
        size = tenant.addr_space if tenant.addr_space is not None else share
        if size < 1:
            raise SpecError(
                f"{tenant.access} tenant {tenant.name!r} gets an empty "
                f"LBA window ({size} of {logical} logical pages on "
                f"{where})")
        out[tenant.name] = (offset, size)
        offset += size
    if offset > logical:
        raise SpecError(
            f"{tenants[0].access} tenants claim {offset} logical pages "
            f"but {where} has only {logical}")
    return out


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, runnable description of machine + workload.

    Hand it to :class:`~repro.api.session.Session` to build the
    simulator, node(s) and network; call :meth:`Session.run` to execute
    the workload and get a :class:`~repro.api.result.RunResult`.

    All validation happens here, at construction: a bad topology name,
    a zero-node cluster or a non-positive tenant weight raises
    :class:`SpecError` immediately, never minutes into a simulation.
    """

    name: str = "scenario"
    n_nodes: int = 1
    geometry: FlashGeometry = BENCH_GEOMETRY
    timing: Optional[FlashTiming] = None
    host: Optional[HostConfig] = None
    network: Optional[NetworkConfig] = None
    topology: TopologySpec = field(default_factory=TopologySpec)
    n_endpoints: int = 4
    app_endpoints: int = 0
    isp_queue_depth: int = 32
    splitter_policy: Optional[str] = None
    splitter_in_flight: Optional[int] = None
    coalesce: bool = False
    coalesce_max_pages: int = 8
    trace_sample: int = 1
    volume: Optional[VolumeSpec] = None
    dvol: Optional[DistributedVolumeSpec] = None
    workload: Optional[WorkloadSpec] = None
    fault: Optional[FaultSpec] = None

    def __post_init__(self):
        # Accept plain dicts for every nested field so from_dict and
        # hand-written literal specs both work.
        for attr, cls in (("geometry", FlashGeometry),
                          ("timing", FlashTiming),
                          ("host", HostConfig),
                          ("network", NetworkConfig)):
            value = getattr(self, attr)
            if isinstance(value, dict):
                object.__setattr__(self, attr, cls(**value))
        if isinstance(self.topology, dict):
            object.__setattr__(self, "topology",
                               TopologySpec.from_dict(self.topology))
        if isinstance(self.volume, dict):
            object.__setattr__(self, "volume",
                               VolumeSpec.from_dict(self.volume))
        if isinstance(self.dvol, dict):
            object.__setattr__(
                self, "dvol", DistributedVolumeSpec.from_dict(self.dvol))
        if isinstance(self.workload, dict):
            object.__setattr__(self, "workload",
                               WorkloadSpec.from_dict(self.workload))
        if isinstance(self.fault, dict):
            object.__setattr__(self, "fault",
                               FaultSpec.from_dict(self.fault))

        if not self.name:
            raise SpecError("scenario needs a non-empty name")
        if self.n_nodes < 1:
            raise SpecError(f"need at least one node, got {self.n_nodes}")
        if self.app_endpoints < 0:
            raise SpecError("negative app_endpoints")
        if self.n_nodes > 1 and self.n_endpoints < 2 + self.app_endpoints:
            raise SpecError(
                "need >= 2 endpoints beyond the reserved application "
                "endpoints (requests + responses)")
        if self.isp_queue_depth < 1:
            raise SpecError("isp_queue_depth must be >= 1")
        if (self.splitter_policy is not None
                and self.splitter_policy not in POLICIES):
            raise SpecError(
                f"unknown splitter policy {self.splitter_policy!r}; "
                f"known: {sorted(POLICIES)}")
        if self.splitter_in_flight is not None \
                and self.splitter_in_flight < 1:
            raise SpecError("splitter_in_flight must be >= 1")
        if self.splitter_policy is None:
            # These program the splitter's shared admission stage, which
            # only exists under a policy; without one they never apply.
            unused = (["splitter_in_flight"]
                      if self.splitter_in_flight is not None else [])
            for where, volume in (
                    ("volume", self.volume),
                    ("dvol.volume", self.dvol and self.dvol.volume)):
                if volume is not None:
                    unused += [f"{where}.{attr}" for attr in
                               ("gc_weight", "gc_rate_mbps", "gc_burst_kb")
                               if getattr(volume, attr) is not None]
            if self.workload is not None:
                unused += [f"tenant {t.name!r} weight/rate_mbps"
                           for t in self.workload.tenants
                           if t.has_policy_qos]
            if unused:
                raise SpecError(
                    f"{', '.join(unused)} program splitter admission QoS, "
                    f"which needs a splitter_policy")
        if self.coalesce_max_pages < 1:
            raise SpecError(f"coalesce_max_pages must be >= 1, "
                            f"got {self.coalesce_max_pages}")
        if self.coalesce and self.coalesce_max_pages < 2:
            raise SpecError(
                "coalescing merges at least two pages per command; "
                "coalesce=True needs coalesce_max_pages >= 2")
        if self.trace_sample < 1:
            raise SpecError(f"trace_sample must be >= 1, "
                            f"got {self.trace_sample}")
        if self.dvol is not None and self.dvol.shards > self.n_nodes:
            raise SpecError(
                f"dvol spans {self.dvol.shards} shards but the cluster "
                f"has {self.n_nodes} node(s)")
        if self.workload is not None:
            policy_labels: Dict[str, str] = {}
            for tenant in self.workload.tenants:
                if tenant.node >= self.n_nodes:
                    raise SpecError(
                        f"tenant {tenant.name!r} issues from node "
                        f"{tenant.node} but the cluster has "
                        f"{self.n_nodes} node(s)")
                target = tenant.target
                if target is not None and not 0 <= target < self.n_nodes:
                    raise SpecError(
                        f"tenant {tenant.name!r} targets node {target} "
                        f"but the cluster has {self.n_nodes} node(s)")
                if tenant.access == "remote_isp" and self.n_nodes < 2:
                    raise SpecError(
                        f"tenant {tenant.name!r} needs remote nodes "
                        f"for remote_isp access")
                if (tenant.has_policy_qos
                        and (tenant.access == "remote_isp"
                             or (tenant.access == "dvol"
                                 and self.n_nodes > 1))
                        and self.trace_sample > 1):
                    # A remote tenant's scheduling identity rides on
                    # the traced request; with 1-in-N sampling leaving
                    # most requests untraced it collapses into the
                    # shared 'net' port label and the configured
                    # weight/rate silently never applies.
                    raise SpecError(
                        f"tenant {tenant.name!r} programs weight/rate "
                        f"QoS on a remote path, which requires "
                        f"trace_sample=1")
                if tenant.has_policy_qos:
                    label = tenant.sched_label()
                    other = policy_labels.get(label)
                    if other is not None:
                        # Two tenants sharing one admission label would
                        # silently overwrite each other's weight/rate.
                        raise SpecError(
                            f"tenants {other!r} and {tenant.name!r} both "
                            f"program weight/rate QoS under the "
                            f"admission label {label!r}")
                    policy_labels[label] = tenant.name
            for access, declared, kind, windows in (
                    ("volume", self.volume, "VolumeSpec",
                     self.volume_windows),
                    ("dvol", self.dvol, "DistributedVolumeSpec",
                     self.dvol_windows)):
                names = [t.name for t in self.workload.tenants
                         if t.access == access]
                if names and declared is None:
                    raise SpecError(
                        f"tenants {names} use access={access!r} but the "
                        f"scenario declares no {kind}")
                # Raises SpecError if the LBA windows overflow the
                # volume's logical capacity.
                windows()

    # -- derived ---------------------------------------------------------
    def volume_windows(self) -> Dict[str, Tuple[int, int]]:
        """Per-tenant ``(start, size)`` LBA windows on the node volumes.

        Volume tenants on one node partition that node's logical
        address space (see :func:`_partition_windows`).  Raises
        :class:`SpecError` when the windows don't fit — at
        construction, never mid-simulation.
        """
        if self.workload is None or self.volume is None:
            return {}
        logical = int(self.geometry.pages_per_node
                      * (1.0 - self.volume.overprovision))
        by_node: Dict[int, list] = {}
        for tenant in self.workload.tenants:
            if tenant.access == "volume":
                by_node.setdefault(tenant.node, []).append(tenant)
        out: Dict[str, Tuple[int, int]] = {}
        for node, tenants in sorted(by_node.items()):
            out.update(_partition_windows(
                tenants, logical,
                f"node {node}'s volume (overprovision "
                f"{self.volume.overprovision})"))
        return out

    def dvol_windows(self) -> Dict[str, Tuple[int, int]]:
        """Per-tenant ``(start, size)`` LBA windows on the dvol.

        Distributed-volume tenants partition one *cluster-wide* logical
        address space (see :func:`_partition_windows`); the planner
        only places whole stripe chunks, so capacity is chunk-truncated
        per shard.  Raises :class:`SpecError` when the windows don't
        fit.
        """
        if self.workload is None or self.dvol is None:
            return {}
        d = self.dvol
        per_shard = int(self.geometry.pages_per_node
                        * (1.0 - d.volume.overprovision))
        chunk = d.stripe_chunk_pages
        logical = d.shards * ((per_shard // chunk) * chunk)
        return _partition_windows(
            [t for t in self.workload.tenants if t.access == "dvol"],
            logical,
            f"the distributed volume ({d.shards} shards, chunk {chunk}, "
            f"overprovision {d.volume.overprovision})")

    def port_qos(self) -> Dict[str, Dict[str, Any]]:
        """Per-port splitter QoS overrides gathered from the tenants."""
        if self.workload is None:
            return {}
        return {t.name: t.qos_kwargs()
                for t in self.workload.tenants if t.has_qos}

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        """A plain-dict (JSON-ready) rendering; inverse of
        :meth:`from_dict`.

        The ``fault`` key is emitted only when a :class:`FaultSpec` is
        present, so pre-reliability specs (and their JSON artifacts)
        stay byte-identical.
        """
        data = {
            "name": self.name,
            "n_nodes": self.n_nodes,
            "geometry": dataclasses.asdict(self.geometry),
            "timing": _opt_dict(self.timing),
            "host": _opt_dict(self.host),
            "network": _opt_dict(self.network),
            "topology": self.topology.to_dict(),
            "n_endpoints": self.n_endpoints,
            "app_endpoints": self.app_endpoints,
            "isp_queue_depth": self.isp_queue_depth,
            "splitter_policy": self.splitter_policy,
            "splitter_in_flight": self.splitter_in_flight,
            "coalesce": self.coalesce,
            "coalesce_max_pages": self.coalesce_max_pages,
            "trace_sample": self.trace_sample,
            "volume": (None if self.volume is None
                       else self.volume.to_dict()),
            "dvol": (None if self.dvol is None
                     else self.dvol.to_dict()),
            "workload": (None if self.workload is None
                         else self.workload.to_dict()),
        }
        if self.fault is not None:
            data["fault"] = self.fault.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        data = dict(data)
        geometry = _opt_load(FlashGeometry, data.get("geometry"))
        if geometry is None:
            # Omitted geometry falls through to the constructor default
            # (BENCH_GEOMETRY) — the same machine a literal
            # ``ScenarioSpec(...)`` without a geometry gets.
            data.pop("geometry", None)
        else:
            data["geometry"] = geometry
        data["timing"] = _opt_load(FlashTiming, data.get("timing"))
        data["host"] = _opt_load(HostConfig, data.get("host"))
        data["network"] = _opt_load(NetworkConfig, data.get("network"))
        if data.get("topology") is not None:
            data["topology"] = TopologySpec.from_dict(data["topology"])
        else:
            data.pop("topology", None)
        if data.get("volume") is not None:
            data["volume"] = VolumeSpec.from_dict(data["volume"])
        if data.get("dvol") is not None:
            data["dvol"] = DistributedVolumeSpec.from_dict(data["dvol"])
        if data.get("workload") is not None:
            data["workload"] = WorkloadSpec.from_dict(data["workload"])
        if data.get("fault") is not None:
            data["fault"] = FaultSpec.from_dict(data["fault"])
        else:
            data.pop("fault", None)
        return cls(**data)
