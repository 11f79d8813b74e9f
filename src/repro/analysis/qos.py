"""The multi-tenant QoS contention scenario, shared by benchmark,
example and the ``qos`` registry experiment.

One node, three tenants on its splitter — local in-store processors
(``isp``), host software paying the full syscall/RPC/PCIe path
(``host``), and the remote-request network service (``net``) as a 12x
aggressor — with card admission bounded so the scheduling policy, not
the physical tag pool, decides who runs.  All six disciplines run over
the same mix: the victims carry wfq weights, the aggressor carries a
token-bucket rate cap, and the four policies that use neither ignore
both.

The scenario is pure data now: :func:`qos_scenario` builds the
:class:`~repro.api.ScenarioSpec` (tenant mix, per-tenant QoS
parameters, shared-RNG closed loop, full drain) and
:func:`run_policy` executes it through a :class:`~repro.api.Session`,
returning the populated :class:`~repro.io.tracer.RequestTracer` as
before.
"""

from __future__ import annotations

from ..api import ScenarioSpec, Session, TenantSpec, WorkloadSpec
from ..flash import FlashGeometry
from ..io import RequestTracer
from ..sim import units

__all__ = ["QOS_POLICIES", "QOS_TENANTS", "ADMISSION_SLOTS",
           "qos_scenario", "run_policy"]

#: All six scheduling disciplines, in the order the tables report them.
QOS_POLICIES = ["fifo", "rr", "wfq", "token-bucket", "priority", "edf"]

#: tenant -> (closed-loop workers, splitter-port QoS kwargs).
#: Kept in the historical shape for the benchmark's iteration order.
#: ``weight`` feeds the wfq policy (victims outweigh the aggressor);
#: the aggressor's ``rate_mbps``/``burst_kb`` feed token-bucket; the
#: other four policies ignore both, so one mix runs under all six.
QOS_TENANTS = {
    "isp": (4, dict(max_in_flight=8, priority=2,
                    deadline_ns=500 * units.US, weight=3.0)),
    "host": (4, dict(max_in_flight=8, priority=1,
                     deadline_ns=2000 * units.US, weight=2.0)),
    "net": (48, dict(max_in_flight=64, priority=0,
                     deadline_ns=20_000 * units.US,
                     rate_mbps=300.0, burst_kb=256.0)),
}

#: Outstanding commands allowed across all ports — well below the
#: card's 256 physical tags, so the policy arbitrates under contention.
ADMISSION_SLOTS = 8

#: Striped page indices the tenants draw addresses from (clamped to the
#: geometry's capacity, so small test geometries work too).
ADDR_SPACE = 4096


def qos_scenario(policy: str, geometry: FlashGeometry, duration_ns: int,
                 seed: int = 1234) -> ScenarioSpec:
    """The three-tenant contention scenario under ``policy``, as data."""
    tenants = tuple(
        TenantSpec(name=name, access=name,
                   workers=workers, rng="shared",
                   addr_space=ADDR_SPACE, **qos_kwargs)
        for name, (workers, qos_kwargs) in QOS_TENANTS.items())
    return ScenarioSpec(
        name=f"qos-{policy}",
        geometry=geometry,
        splitter_policy=policy,
        splitter_in_flight=ADMISSION_SLOTS,
        workload=WorkloadSpec(duration_ns=duration_ns, tenants=tenants,
                              seed=seed, drain=True))


def run_policy(policy: str, geometry: FlashGeometry,
               duration_ns: int) -> RequestTracer:
    """Run the three-tenant contention workload under ``policy``."""
    session = Session(qos_scenario(policy, geometry, duration_ns))
    session.run()
    return session.tracer
