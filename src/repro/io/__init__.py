"""Unified I/O request pipeline: one request abstraction for every path.

Every access path in the appliance — host software over PCIe, local
in-store processors, remote in-store processors over the integrated
network, Ethernet-reached remote hosts — moves pages through the same
kinds of stages: queueing, software, flash array access, bus/link
transfer, network propagation.  Before this package existed each layer
kept private bookkeeping; now they all speak :class:`IORequest`:

* :class:`~repro.io.request.IORequest` — one page-granular operation
  with kind, address, size, tenant, priority, deadline and per-stage
  timestamps accumulated as it traverses the layers.
* :class:`~repro.io.stage.StageSpan` — the timing span layers use to
  charge wall-clock to a named stage.
* :class:`~repro.io.tracer.RequestTracer` — collects completed
  requests; attributes end-to-end latency to stages (reconciling with
  Figure 12's software/storage/transfer/network taxonomy) and keeps
  per-tenant and per-stage percentile histograms.
* :class:`~repro.io.scheduler.SchedulerPolicy` — pluggable queueing
  disciplines (FIFO, round-robin fair share, weighted fair share,
  token-bucket rate limiting, strict priority, earliest deadline) and
  :class:`~repro.io.scheduler.ScheduledResource`, a counted resource
  whose grant order is decided by a policy.
"""

from .request import UNSAMPLED, IOKind, IORequest
from .scheduler import (
    POLICIES,
    EarliestDeadlinePolicy,
    FIFOPolicy,
    QueueEntry,
    RoundRobinPolicy,
    ScheduledResource,
    SchedulerPolicy,
    StrictPriorityPolicy,
    TokenBucketPolicy,
    WeightedFairPolicy,
    make_policy,
)
from .stage import BatchStageSpan, StageSpan
from .tracer import RequestTracer

__all__ = [
    "IOKind",
    "IORequest",
    "UNSAMPLED",
    "StageSpan",
    "BatchStageSpan",
    "RequestTracer",
    "SchedulerPolicy",
    "QueueEntry",
    "FIFOPolicy",
    "RoundRobinPolicy",
    "WeightedFairPolicy",
    "TokenBucketPolicy",
    "StrictPriorityPolicy",
    "EarliestDeadlinePolicy",
    "ScheduledResource",
    "POLICIES",
    "make_policy",
]
