"""The run session facade: spec in, simulator out, results back.

A :class:`Session` owns everything one scenario needs — the
discrete-event :class:`~repro.sim.Simulator`, an attached
:class:`~repro.io.RequestTracer`, and the machine built from the
:class:`~repro.api.spec.ScenarioSpec` (a bare
:class:`~repro.core.BlueDBMNode` for single-node scenarios, a
:class:`~repro.core.BlueDBMCluster` otherwise).  It also owns the
closed-loop workload driver that used to be copy-pasted across the
Figure 13 benchmark, the nearest-neighbour builders and the QoS
scenario: :meth:`run` executes the spec's
:class:`~repro.api.spec.WorkloadSpec` and returns a structured
:class:`~repro.api.result.RunResult`.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from ..core import BlueDBMCluster, BlueDBMNode
from ..dvol import PlacementPlanner, ShardServiceIface, ShardedVolume
from ..faults import fault_seed_override
from ..flash import Coalescer
from ..host import HostInterface
from ..io import RequestTracer
from ..sim import Event, Simulator
from ..volume import LogicalVolume
from .result import RunResult
from .spec import ScenarioSpec, SpecError, TenantSpec, VolumeSpec

__all__ = ["Session"]


class Session:
    """Builds and drives one scenario end to end.

    Attributes
    ----------
    sim : the session's simulator (fresh, time starts at zero).
    tracer : the unified request tracer (1-in-``spec.trace_sample``).
    nodes : every :class:`BlueDBMNode`, indexed by node id.
    cluster : the :class:`BlueDBMCluster`, or None for 1-node scenarios.
    node : shorthand for ``nodes[0]``.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.sim = Simulator()
        self.tracer = RequestTracer(self.sim, sample=spec.trace_sample)
        node_kwargs = dict(
            geometry=spec.geometry,
            flash_timing=spec.timing,
            host_config=spec.host,
            isp_queue_depth=spec.isp_queue_depth,
            splitter_policy=spec.splitter_policy,
            splitter_in_flight=spec.splitter_in_flight,
            tracer=self.tracer,
            port_qos=spec.port_qos(),
            coalesce=spec.coalesce,
            coalesce_max_pages=spec.coalesce_max_pages,
        )
        if spec.fault is not None:
            # Each node builds its own FaultInjector from the shared
            # pure plan, so per-node read-count/failure state stays
            # private while the schedule is one seeded function.  A CLI
            # ``--fault-seed`` override reseeds the plan, nothing else.
            node_kwargs.update(
                endurance=(3000 if spec.fault.endurance is None
                           else spec.fault.endurance),
                fault_plan=spec.fault.build_plan(fault_seed_override()),
            )
        # An active distributed volume claims its endpoint block right
        # after the application block, leaving the cluster's
        # request/response protocol — and any app endpoints the spec
        # reserved — untouched.
        dvol_eps = (ShardedVolume.ENDPOINTS
                    if spec.dvol is not None and spec.n_nodes > 1 else 0)
        if spec.n_nodes == 1:
            self.cluster: Optional[BlueDBMCluster] = None
            self.nodes: List[BlueDBMNode] = [
                BlueDBMNode(self.sim, **node_kwargs)]
        else:
            self.cluster = BlueDBMCluster(
                self.sim, spec.n_nodes,
                topology=spec.topology.build(spec.n_nodes),
                network_config=spec.network,
                n_endpoints=spec.n_endpoints + dvol_eps,
                app_endpoints=spec.app_endpoints + dvol_eps,
                node_kwargs=node_kwargs,
                tracer=self.tracer)
            self.nodes = self.cluster.nodes
        #: node id -> its FTL-backed logical volume (built on demand).
        self.volumes: Dict[int, LogicalVolume] = {}
        #: the cluster-wide sharded volume (built when dvol tenants run).
        self.dvol: Optional[ShardedVolume] = None
        #: volume/dvol tenant name -> its dedicated HostInterface.
        self._ifaces: Dict[str, HostInterface] = {}
        #: volume/dvol tenant name -> (LBA window start, size).
        self._windows: Dict[str, tuple] = {}
        self._page_fill = bytes(spec.geometry.page_size)
        #: tenant name -> physical indices its raw writers have
        #: programmed (NAND no-reprogram bookkeeping for write mixes).
        self._written: Dict[str, set] = {}
        if spec.workload is not None:
            self._configure_qos()
            self._build_volumes()
            self._build_dvol()

    def _build_volumes(self) -> None:
        """Attach logical volumes and per-tenant host interfaces.

        Each node with volume tenants gets one
        :class:`~repro.volume.LogicalVolume` whose GC relocation
        traffic rides a dedicated low-priority splitter port (admission
        label ``volume-gc``, QoS from the
        :class:`~repro.api.spec.VolumeSpec`).  Each volume *tenant*
        gets its own splitter port — named and scheduled after the
        tenant — driven through a private
        :class:`~repro.host.HostInterface`, so volume traffic pays the
        full host software/PCIe path and is arbitrated and traced under
        the tenant's identity.
        """
        spec = self.spec
        if spec.volume is None:
            return
        windows = spec.volume_windows()
        for tenant in spec.workload.tenants:
            if tenant.access != "volume":
                continue
            volume = self.volumes.get(tenant.node)
            if volume is None:
                volume = self.volumes[tenant.node] = self._gc_volume(
                    self.nodes[tenant.node], "volume-gc", spec.volume,
                    f"volume-n{tenant.node}")
            self._attach_tenant(tenant, volume, windows[tenant.name],
                                spec.volume.fill)

    def _build_dvol(self) -> None:
        """Build the cluster-wide sharded volume and its per-node
        request channels.

        Nodes ``0 .. shards-1`` each get a shard
        :class:`~repro.volume.LogicalVolume` (GC on a dedicated
        low-priority port labeled ``dvol-gc``) plus a network *service
        port* — deliberately slot-capped at ``remote_in_flight`` — that
        remote operations are admitted through, optionally behind a
        slot-paced read :class:`~repro.flash.Coalescer`.  Every node gets a
        :class:`~repro.network.RpcChannel` on the volume's private
        endpoint block, so any node can source remote operations.  Each
        dvol *tenant* gets its own splitter port and
        :class:`~repro.host.HostInterface` on its home node (the full
        host software/PCIe path), and its LBA window is ownership-
        registered and functionally prefilled through the placement
        planner's run splitting.
        """
        spec = self.spec
        if spec.dvol is None:
            return
        dvol_tenants = [t for t in spec.workload.tenants
                        if t.access == "dvol"]
        if not dvol_tenants:
            return
        d = spec.dvol
        geometry = spec.geometry
        per_shard = int(geometry.pages_per_node
                        * (1.0 - d.volume.overprovision))
        planner = PlacementPlanner(
            d.shards, per_shard, placement=d.placement,
            stripe_chunk_pages=d.stripe_chunk_pages,
            hash_seed=d.hash_seed)
        self.dvol = ShardedVolume(self.sim, planner, geometry.page_size)
        for shard in range(d.shards):
            node = self.nodes[shard]
            volume = self._gc_volume(node, "dvol-gc", d.volume,
                                     f"dvol-n{shard}")
            service_port = node.splitter.add_port(
                max_in_flight=d.remote_in_flight, tenant="dvol")
            coalescer = (
                Coalescer(service_port, d.remote_coalesce_max_pages,
                          paced=True)
                if d.remote_coalesce else None)
            service = ShardServiceIface(
                self.sim, service_port, geometry.page_size,
                coalescer=coalescer)
            self.dvol.add_shard(shard, volume, service)
        if self.cluster is not None:
            self.dvol.connect(self.cluster.network,
                              first_ep=1 + spec.app_endpoints)
        windows = spec.dvol_windows()
        for tenant in dvol_tenants:
            self._attach_tenant(tenant, self.dvol, windows[tenant.name],
                                d.volume.fill)

    def _gc_volume(self, node: BlueDBMNode, gc_label: str,
                   volume_spec: VolumeSpec, name: str) -> LogicalVolume:
        """A :class:`~repro.volume.LogicalVolume` on ``node`` whose GC
        relocation traffic rides a dedicated splitter port admitted
        under ``gc_label`` with ``volume_spec``'s GC QoS.

        Without a :class:`~repro.api.spec.FaultSpec` the volume keeps
        its ideal-hardware defaults, so results stay byte-identical.
        """
        gc_port = node.splitter.add_port(tenant=gc_label,
                                         priority=volume_spec.gc_priority)
        node.splitter.configure_tenant(
            gc_label, weight=volume_spec.gc_weight,
            rate_mbps=volume_spec.gc_rate_mbps,
            burst_kb=volume_spec.gc_burst_kb)
        fault = self.spec.fault
        reliability = ({} if fault is None else
                       {"wear_leveling": fault.wear_leveling,
                        "wl_spread_threshold": fault.wl_spread_threshold})
        return LogicalVolume(
            self.sim, node.device, gc_port,
            overprovision=volume_spec.overprovision,
            allocation=volume_spec.allocation,
            gc_low_watermark=volume_spec.gc_low_watermark,
            name=name, **reliability)

    def _attach_tenant(self, tenant: TenantSpec, target, window: tuple,
                       fill: float) -> None:
        """Give a volume or dvol tenant its own splitter port and
        :class:`~repro.host.HostInterface` on its home node, then
        register its LBA ``window`` on ``target`` (a node volume or the
        sharded volume) and functionally prefill ``fill`` of it."""
        node = self.nodes[tenant.node]
        port = node.splitter.add_port(tenant=tenant.name,
                                      **tenant.qos_kwargs())
        self._ifaces[tenant.name] = HostInterface(
            self.sim, node.host_config, node.cpu, node.pcie, port,
            self.spec.geometry.page_size, tracer=self.tracer,
            tenant=tenant.name)
        self._windows[tenant.name] = window
        start, size = window
        target.register_owner(start, size, tenant.name)
        prefill = int(fill * size)
        if prefill:
            target.prefill(start, prefill)

    def _configure_qos(self) -> None:
        """Program per-tenant admission QoS.

        Weight/rate/burst parameters land on the splitter that actually
        arbitrates the tenant's traffic — the *target* node's for
        remote tenants — keyed by the same label the tenant's requests
        carry through the admission stage.
        """
        for tenant in self.spec.workload.tenants:
            if not tenant.has_policy_qos:
                continue
            if tenant.access == "dvol":
                # A dvol tenant's traffic is admitted wherever its
                # pages land — its home node locally, every shard node
                # remotely (the label rides the request) — so its
                # weight/rate must be programmed on all of them.
                nodes = sorted(
                    set(range(self.spec.dvol.shards)) | {tenant.node})
            elif tenant.access == "remote_isp":
                nodes = [tenant.target]
            else:
                nodes = [tenant.node]
            for node_id in nodes:
                self.nodes[node_id].splitter.configure_tenant(
                    tenant.sched_label(), weight=tenant.weight,
                    rate_mbps=tenant.rate_mbps, burst_kb=tenant.burst_kb)

    @property
    def node(self) -> BlueDBMNode:
        return self.nodes[0]

    # ------------------------------------------------------------------
    # workload execution
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the spec's workload; return the structured result.

        Spawns every tenant's closed-loop workers (in spec order — the
        order is part of deterministic reproducibility), runs the
        simulation to the workload window (or to full drain), and
        returns completions, per-tenant bandwidth, and the tracer's
        per-tenant / per-stage statistics.
        """
        workload = self.spec.workload
        if workload is None:
            raise SpecError(
                f"scenario {self.spec.name!r} has no workload to run")
        counters = {t.name: 0 for t in workload.tenants}
        issued = {t.name: 0 for t in workload.tenants}
        shared_rng = random.Random(workload.seed)
        depth = workload.queue_depth
        open_loop = workload.arrival is not None
        for tenant in workload.tenants:
            issue = self._issuer(tenant)
            for wid in range(tenant.workers):
                rng = (shared_rng if tenant.rng == "shared"
                       else random.Random(tenant.seed_base + wid))
                if open_loop:
                    worker = self._open_loop_dispatcher(
                        tenant, rng, wid, issue, workload, counters, issued)
                elif depth > 1:
                    worker = self._async_worker(tenant, rng, wid, issue,
                                                workload.duration_ns,
                                                counters, depth)
                else:
                    worker = self._worker(tenant, rng, wid, issue,
                                          workload.duration_ns, counters)
                self.sim.process(worker, name=f"{tenant.name}-worker")
        if workload.drain:
            self.sim.run()
        else:
            self.sim.run(until=workload.duration_ns)
        return self._workload_result(
            counters, issued if open_loop else None)

    def _addr_space(self, tenant: TenantSpec) -> int:
        geometry = self.spec.geometry
        return (geometry.pages_per_node if tenant.addr_space is None
                else min(tenant.addr_space, geometry.pages_per_node))

    def _window(self, tenant: TenantSpec) -> tuple:
        """The tenant's (start, size) address window.

        Volume tenants own a slice of their node volume's logical
        address space, dvol tenants a slice of the cluster-wide sharded
        space; everything else addresses the physical striped space
        from zero.
        """
        return self._windows.get(tenant.name) or (
            0, self._addr_space(tenant))

    @staticmethod
    def _indices(tenant: TenantSpec, rng: random.Random, wid: int,
                 addr_space: int):
        """The worker's endless page-index stream (pattern-dependent).

        ``random`` draws from the worker's RNG exactly as the seed's
        inline ``randrange`` did; ``sequential`` walks consecutive
        indices from a per-worker offset — stripe-adjacent runs, the
        shape the coalescing stage merges.
        """
        if tenant.pattern == "sequential":
            span = max(1, addr_space // tenant.workers)
            index = (wid * span) % addr_space
            while True:
                yield index
                index = (index + 1) % addr_space
        else:
            while True:
                yield rng.randrange(addr_space)

    def _op_stream(self, tenant: TenantSpec, rng: random.Random,
                   wid: int, start: int, size: int):
        """The worker's endless ``(kind, address)`` operation stream.

        Pure read tenants (``write_fraction=0``) draw exactly the
        index sequence the read-only workers always drew — no extra
        RNG consumption, so existing scenarios replay bit-identically.
        Mixed tenants draw one extra uniform variate per op to pick
        read vs write.  *Raw* (non-volume) writers program physical
        pages in place, and NAND forbids reprogramming without an
        erase — so every written index is tracked: random writers
        redraw collisions, and once the window is exhausted (or a
        sequential walk reaches a written page) the stream raises a
        clear error instead of livelocking on redraws or dying later
        inside a chip with an opaque ``ProgramError``.  Volume writers
        never collide — the FTL remaps every write out of place.
        """
        indices = self._indices(tenant, rng, wid, size)
        if tenant.write_fraction <= 0.0:
            for index in indices:
                yield ("read", start + index)
            return
        raw = tenant.access != "volume"
        # Shared across the tenant's workers: raw-write collisions are
        # physical, not per-worker.
        written = self._written.setdefault(tenant.name, set())
        for index in indices:
            write = rng.random() < tenant.write_fraction
            if write and raw:
                if len(written) >= size:
                    raise SpecError(
                        f"tenant {tenant.name!r} wrote all {size} "
                        f"pages of its address space; raw writes "
                        f"cannot reprogram without an erase — shorten "
                        f"the window, widen addr_space, or use "
                        f"access='volume'")
                if tenant.pattern == "random":
                    while index in written:
                        index = rng.randrange(size)
                elif index in written:
                    raise SpecError(
                        f"tenant {tenant.name!r}: sequential raw write "
                        f"walk reached already-written page {index} "
                        f"(window wrap or worker overlap); raw writes "
                        f"cannot reprogram without an erase")
                written.add(index)
            yield ("write" if write else "read", start + index)

    def _worker(self, tenant: TenantSpec, rng: random.Random, wid: int,
                issue: Callable, deadline: int, counters: dict):
        """One synchronous closed-loop worker (queue depth 1): issue a
        page operation, wait for it, repeat until the window closes."""
        sim = self.sim
        start, size = self._window(tenant)
        ops = self._op_stream(tenant, rng, wid, start, size)
        while sim.now < deadline:
            kind, index = next(ops)
            yield from issue(kind, index)
            counters[tenant.name] += 1

    def _async_worker(self, tenant: TenantSpec, rng: random.Random,
                      wid: int, issue: Callable, deadline: int,
                      counters: dict, depth: int):
        """One asynchronous closed-loop worker: keep ``depth`` requests
        in flight, issuing replacements as completions arrive.

        Every access kind runs the same window: each operation is a
        process over the same ``issue`` generator the synchronous worker
        uses, completions arrive out of order, and the worker waits on
        whichever finishes first.  Completions are counted from the
        process completion events themselves, so requests still in
        flight when the window closes are counted if a draining run lets
        them finish — matching the tracer's view.  The count callback
        also succeeds the round's one wake event on the round's first
        completion, so the worker resumes once per round.
        """
        sim = self.sim
        name = tenant.name
        start, size = self._window(tenant)
        ops = self._op_stream(tenant, rng, wid, start, size)
        wake = None

        def counted(event) -> None:
            counters[name] += 1
            if not wake._triggered:
                wake.succeed()

        # Volume tenants refill in coalescible chunks: the PCIe link
        # spaces their completions out one page at a time, so
        # refilling per completion would feed the coalescer
        # unmergeable singletons.  Waiting for a command's worth of
        # drained window keeps replacement runs stripe-adjacent.
        # (The floor is driver policy, deliberately independent of
        # spec.coalesce, so on/off comparisons share one driver.)
        refill_floor = (min(depth, self.spec.coalesce_max_pages)
                        if tenant.access == "volume" else 1)
        pending: List = []
        while sim.now < deadline:
            if not pending or depth - len(pending) >= refill_floor:
                while len(pending) < depth:
                    kind, index = next(ops)
                    proc = sim.process(issue(kind, index))
                    proc.callbacks.append(counted)
                    pending.append(proc)
            round_start = sim.now
            wake = Event(sim)
            yield wake
            live = []
            for proc in pending:
                if not proc._triggered:
                    live.append(proc)
                elif proc.callbacks is not None:
                    # Finished after the wake fired but not yet
                    # processed (it runs before the clock moves): count
                    # it now and unhook it, so it wakes no later round.
                    counters[name] += 1
                    proc.callbacks = []
            pending = live
            if sim.now == round_start and not pending:
                # Every op in the wave completed in zero simulated
                # time (e.g. map-answered volume reads of an unfilled
                # window): force minimal progress so the measurement
                # window cannot livelock at one timestep.
                yield sim.timeout(1)

    @staticmethod
    def _arrival_gaps(rng: random.Random, rate_rps: float):
        """Endless Poisson inter-arrival gaps (ns) at ``rate_rps``.

        ``rate_rps`` is this dispatcher's share of the offered load.
        All randomness comes from ``rng``, so a rerun of the same spec
        replays the identical arrival sequence.
        """
        rate = rate_rps / 1e9  # requests per nanosecond
        expovariate = rng.expovariate
        while True:
            yield int(expovariate(rate))

    def _open_loop_dispatcher(self, tenant: TenantSpec, rng: random.Random,
                              wid: int, issue: Callable,
                              workload, counters: dict, issued: dict):
        """One open-loop dispatcher: requests arrive as a Poisson
        process and are issued fire-and-forget, regardless of
        completions — the offered load does not throttle when the
        device falls behind (that *is* the experiment).

        The dispatcher stands in for thousands of thin sessions
        multiplexed onto the tenant's port: their superposition is
        Poisson, so one process per tenant-worker drives any session
        count without per-session bookkeeping.  A tenant's ``workers``
        dispatchers split the offered load evenly.
        """
        sim = self.sim
        name = tenant.name
        start, size = self._window(tenant)
        ops = self._op_stream(tenant, rng, wid, start, size)
        deadline = workload.duration_ns
        gaps = self._arrival_gaps(
            rng, workload.arrival_rate_rps / tenant.workers)

        def counted(event) -> None:
            counters[name] += 1

        process = sim.process
        timeout = sim.timeout
        while True:
            gap = next(gaps)
            if sim.now + gap >= deadline:
                return
            yield timeout(gap)
            kind, index = next(ops)
            issued[name] += 1
            proc = process(issue(kind, index))
            proc.callbacks.append(counted)

    def _issuer(self, tenant: TenantSpec) -> Callable:
        """The access-path generator for one tenant's operations.

        Issuers take ``(kind, index)`` — ``kind`` is ``"read"`` or
        ``"write"`` (only the host and volume paths carry write mixes;
        spec validation enforces it), ``index`` a striped physical
        index or, for volume tenants, a logical page number.
        """
        geometry = self.spec.geometry
        node = self.nodes[tenant.node]
        software_path = tenant.software_path
        if tenant.access == "remote_isp":
            cluster, src, target = self.cluster, tenant.node, tenant.target

            def issue(kind, index):
                addr = geometry.striped(index, node=target)
                yield from cluster.isp_remote_flash(src, addr)
        elif tenant.access == "host":
            page_fill = self._page_fill

            def issue(kind, index):
                addr = geometry.striped(index, node=tenant.node)
                if kind == "write":
                    yield from node.host.write_page(
                        addr, page_fill, software_path=software_path)
                else:
                    yield from node.host_read(
                        addr, software_path=software_path)
        elif tenant.access == "volume":
            iface = self._ifaces[tenant.name]
            volume = self.volumes[tenant.node]
            page_fill = self._page_fill

            def issue(kind, index):
                if kind == "write":
                    yield from iface.write_lpn(
                        volume, index, page_fill,
                        software_path=software_path)
                else:
                    yield from iface.read_lpn(
                        volume, index, software_path=software_path)
        elif tenant.access == "dvol":
            iface = self._ifaces[tenant.name]
            dvol = self.dvol
            src = tenant.node
            page_fill = self._page_fill

            def issue(kind, index):
                if kind == "write":
                    yield from dvol.write_lpn(
                        src, iface, index, page_fill,
                        software_path=software_path)
                else:
                    yield from dvol.read_lpn(
                        src, iface, index,
                        software_path=software_path)
        else:
            read = node.isp_read if tenant.access == "isp" \
                else node.net_read

            def issue(kind, index):
                addr = geometry.striped(index, node=tenant.node)
                yield from read(addr)
        return issue

    def _workload_result(self, counters: dict,
                         issued: Optional[dict] = None) -> RunResult:
        workload = self.spec.workload
        window = self.sim.now if workload.drain else workload.duration_ns
        page = self.spec.geometry.page_size
        bandwidth = {name: count * page / window if window else 0.0
                     for name, count in counters.items()}
        total = sum(counters.values())
        result = self.result()
        result.tenant_stats = self._relabel_tenant_stats(
            result.tenant_stats)
        result.elapsed_ns = self.sim.now
        result.metrics.update({
            "completions": dict(counters),
            "bandwidth_gbs": bandwidth,
            "total_bandwidth_gbs": (total * page / window if window
                                    else 0.0),
            "window_ns": window,
            "splitter_bandwidth": self._splitter_bandwidth(window),
        })
        if issued is not None:
            result.metrics["issued"] = dict(issued)
        if self.spec.coalesce:
            result.metrics["coalescing"] = {
                node.node_id: node.splitter.coalescing_stats()
                for node in self.nodes}
            result.metrics["write_coalescing"] = {
                node.node_id: node.splitter.write_coalescing_stats()
                for node in self.nodes}
        if self.volumes:
            result.metrics["volume"] = {
                node_id: volume.stats()
                for node_id, volume in sorted(self.volumes.items())}
            result.metrics["write_amplification"] = {
                tenant.name: self.volumes[tenant.node]
                .core.write_amplification(tenant.name)
                for tenant in self.spec.workload.tenants
                if tenant.access == "volume"}
        if self.dvol is not None:
            result.metrics["dvol"] = self.dvol.stats()
        if self.spec.fault is not None:
            result.metrics["faults"] = self.fault_metrics()
        return result

    def fault_metrics(self) -> dict:
        """Per-node injector and device reliability counters.

        Only reported when the spec carries a
        :class:`~repro.api.spec.FaultSpec` — absent faults, the metrics
        dict stays byte-identical to pre-reliability runs.
        """
        out: dict = {}
        for node in self.nodes:
            stats = (dict(node.faults.stats())
                     if node.faults is not None else {})
            stats["device_program_failures"] = node.device.program_failures
            stats["device_uncorrectable_reads"] = (
                node.device.uncorrectable_reads)
            stats["wear_spread"] = node.device.wear.spread()
            stats["wear_max"] = node.device.wear.max_erase_count
            stats["grown_bad_blocks"] = node.device.badblocks.grown_bad_count
            out[node.node_id] = stats
        return out

    def _splitter_bandwidth(self, window: int) -> dict:
        """Per-node, per-tenant bytes serviced at each splitter.

        The admission-stage bandwidth accounting: total bytes, busiest
        single accounting window, and rate over the run — keyed by the
        scheduling tenant labels (relabeled to spec tenant names where
        the mapping is one-to-one, mirroring ``tenant_stats``).
        """
        out: dict = {}
        for node in self.nodes:
            summary = node.splitter.bandwidth.summary(window)
            if summary:
                out[node.node_id] = self._relabel_tenant_stats(summary)
        return out

    def _relabel_tenant_stats(self, stats: dict) -> dict:
        """Key tracer tenant stats by spec tenant names where possible.

        The tracer labels requests by the splitter port they used
        (``isp``/``host``/``net``) or the cluster path (``isp-n<src>``
        for remote ISP reads); the workload's tenants are named by the
        spec.  When exactly one spec tenant maps to a label, report its
        stats under the spec name — what callers index by.  Labels
        shared by several tenants (e.g. two remote tenants issuing from
        one node) keep the port label, since their latencies are
        physically merged at that port.
        """
        owners: dict = {}
        for tenant in self.spec.workload.tenants:
            owners.setdefault(tenant.sched_label(), []).append(tenant.name)
        relabeled = {
            (owners[label][0]
             if len(owners.get(label, ())) == 1 else label): summary
            for label, summary in stats.items()
        }
        # A pathological mix (a tenant named after a port it doesn't
        # use) could collide keys; keep the unambiguous raw labels then.
        return relabeled if len(relabeled) == len(stats) else stats

    def result(self) -> RunResult:
        """Snapshot the session's tracer into a fresh RunResult."""
        result = RunResult(experiment=self.spec.name,
                           elapsed_ns=self.sim.now,
                           spec=self.spec.to_dict())
        workload = self.spec.workload
        window = (self.sim.now if workload is None or workload.drain
                  else workload.duration_ns)
        result.tenant_stats = self.tracer.tenant_summary(window)
        result.stage_stats = self.tracer.stage_summary()
        return result

