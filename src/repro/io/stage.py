"""Timing spans for the unified request pipeline.

A *stage* is any element a request passes through that costs simulated
time: the host syscall path, a splitter admission queue, the flash
array, a DMA engine.  Layers charge time to named stages with
:class:`StageSpan`, which is safe to use around ``yield`` points because
a span only reads the simulator clock from its own process.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..sim import Simulator
from .request import IORequest

__all__ = ["StageSpan", "BatchStageSpan"]


class _NullSpan:
    """Shared do-nothing span for untraced requests.

    One module-level instance serves every untraced ``with`` block, so
    a pipeline running without a tracer (or whose request fell outside
    the 1-in-N trace sample) allocates nothing per stage.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class StageSpan:
    """Charge the wall-clock of a ``with`` block to ``request``'s stage.

    Usage inside a DES generator::

        with StageSpan(sim, request, "software"):
            yield from cpu.compute(cost)

    ``request=None`` makes the span a no-op, so call sites don't need
    to branch on whether tracing is attached — and no span object is
    allocated at all (a shared null span is returned instead).
    """

    __slots__ = ("sim", "request", "stage")

    def __new__(cls, sim: Simulator, request: Optional[IORequest],
                stage: str):
        if not request:
            # None or UNSAMPLED: __init__ is skipped because _NullSpan
            # is not a StageSpan.
            return _NULL_SPAN
        return object.__new__(cls)

    def __init__(self, sim: Simulator, request: Optional[IORequest],
                 stage: str):
        self.sim = sim
        self.request = request
        self.stage = stage

    def __enter__(self) -> "StageSpan":
        self.request.enter(self.stage, self.sim.now)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.request.exit(self.stage, self.sim.now)


class BatchStageSpan:
    """Charge one ``with`` block's wall-clock to *every* request of a
    coalesced command or batch.

    Where a merged multi-page command holds several child requests
    through one shared wait — the admission queue, the physical tag,
    the command-setup overhead — each child spent that wall-clock time
    in the stage, so each child's ledger is charged the full span.
    That keeps per-child attribution exact (the
    :class:`~repro.io.tracer.RequestTracer` still decomposes every
    child's end-to-end latency into queueing vs. service) while the
    *amortization* shows up where it belongs: N children share one
    span instead of paying N sequential ones.

    ``requests`` may contain ``None`` or
    :data:`~repro.io.request.UNSAMPLED` entries (untraced children);
    they are skipped, so call sites never branch on tracing.
    """

    __slots__ = ("sim", "requests", "stage")

    def __new__(cls, sim: Simulator,
                requests: Iterable[Optional[IORequest]], stage: str):
        for request in requests:
            if request:
                return object.__new__(cls)
        return _NULL_SPAN

    def __init__(self, sim: Simulator,
                 requests: Iterable[Optional[IORequest]], stage: str):
        self.sim = sim
        self.requests = [r for r in requests if r]
        self.stage = stage

    def __enter__(self) -> "BatchStageSpan":
        now = self.sim.now
        for request in self.requests:
            request.enter(self.stage, now)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        now = self.sim.now
        for request in self.requests:
            request.exit(self.stage, now)
