"""Closed-form timing oracles for local reads and the four Figure 12
remote access paths.

The first access on each path runs on an idle cluster, so it is
deterministic: every stage of its request ledger, the ``network``
annotation, the end-to-end total and the ``transfer`` residual that
:meth:`~repro.io.RequestTracer.figure12_components` derives are sums of
model parameters.  Each is checked with ``==``, no tolerance, so a
modelling change in any stage shows up here instead of sliding into the
residual.  The scenario is the one ``repro run fig12`` measures: a
3-node ring at the benchmark geometry, node 0 reading page 3 (or DRAM
page 0) of its neighbour, node 1, or page 3 of its own flash.
"""

import math

import pytest

from repro.api import BENCH_GEOMETRY, ScenarioSpec, Session
from repro.core.cluster import _REQUEST_BYTES
from repro.experiments.fig12 import PATHS, measure_path
from repro.flash import PhysAddr
from repro.io import RequestTracer

SRC, DST = 0, 1
ADDR = PhysAddr(node=DST, page=3)
LOCAL = PhysAddr(node=SRC, page=3)
DRAM_PAGE = 0


def first_access(path):
    """Run one access on ``path``; return (cluster, completed request)."""
    session = Session(ScenarioSpec(name=f"oracle-{path}", n_nodes=3,
                                   geometry=BENCH_GEOMETRY))
    cluster, tracer = session.cluster, session.tracer
    cluster.nodes[DST].device.store.program(ADDR, b"remote page data")
    cluster.nodes[DST].dram.store(DRAM_PAGE, b"remote dram data")
    cluster.nodes[SRC].device.store.program(LOCAL, b"local page data")
    completed = []
    complete = tracer.complete

    def keep(request):
        complete(request)
        completed.append(request)

    tracer.complete = keep
    access = {
        "ISP": lambda: cluster.nodes[SRC].isp_read(LOCAL),
        "H": lambda: cluster.nodes[SRC].host_read(LOCAL),
        "ISP-F": lambda: cluster.isp_remote_flash(SRC, ADDR),
        "H-F": lambda: cluster.host_remote_flash(SRC, ADDR),
        "H-RH-F": lambda: cluster.host_remote_via_host(SRC, ADDR),
        "H-D": lambda: cluster.host_remote_dram(SRC, DST, DRAM_PAGE),
    }[path]
    session.sim.run_process(access())
    [request] = completed
    return cluster, request


def ns(nbytes, bytes_per_ns):
    """Time to move ``nbytes``, rounded to the nanosecond."""
    return round(nbytes / bytes_per_ns)


class Terms:
    """The closed-form pieces the four paths are built from."""

    def __init__(self, cluster):
        flash = cluster.nodes[DST].device.cards[0].timing
        host = cluster.nodes[SRC].host_config
        assert cluster.nodes[DST].host_config == host
        assert cluster.nodes[SRC].device.cards[0].timing == flash
        net = cluster.network.config
        page = cluster.page_size
        self.hop = net.hop_latency_ns
        # One hop apart.
        assert cluster.network.propagation_ns(SRC, DST) == self.hop
        # Flash: command + array read, then card bus and aurora link.
        self.storage = flash.cmd_overhead_ns + flash.t_read_ns
        self.device = (ns(page, flash.bus_bytes_per_ns)
                       + flash.aurora_latency_ns
                       + ns(page, flash.aurora_bytes_per_ns))
        # Integrated network: the request is one packet; the page is
        # max_packet_payload chunks serialized back to back, and only
        # the last chunk's hop is not hidden behind the next chunk.
        flit = net.flit_bytes + net.flit_overhead_bytes
        self.request_wire = ns(
            math.ceil(_REQUEST_BYTES / net.flit_bytes) * flit,
            net.bytes_per_ns)
        self.reply_wire = (page // net.max_packet_payload) * ns(
            net.max_packet_payload // net.flit_bytes * flit,
            net.bytes_per_ns)
        # Ethernet: NIC serialization, then the fixed one-way latency.
        self.eth_wire = ns(_REQUEST_BYTES, cluster.ethernet.BYTES_PER_NS)
        self.eth_rpc = cluster.ethernet.RPC_LATENCY_NS
        # Host: PCIe DMA each way, portal write, interrupt, software.
        self.pcie_up = (ns(page, host.pcie_dev_to_host_gbs)
                        + host.pcie_latency_ns)
        self.pcie_down = (ns(page, host.pcie_host_to_dev_gbs)
                          + host.pcie_latency_ns)
        self.rpc = host.rpc_ns
        self.interrupt = host.interrupt_ns
        self.sw = host.software_request_ns
        dram = cluster.nodes[DST].dram
        self.dram = dram.LATENCY_NS + ns(page, dram.bandwidth_gbs)


def check(request, stages, network, total, software, storage, transfer):
    assert request.stages == stages
    assert request.annotations == ({"network": network} if network else {})
    assert request.total_ns == total
    assert RequestTracer.figure12_components(request) == {
        "software": software, "storage": storage,
        "transfer": transfer, "network": network}


def test_local_isp_read():
    cluster, request = first_access("ISP")
    t = Terms(cluster)
    check(request,
          stages={"queue": 0, "tag": 0, "storage": t.storage,
                  "device": t.device},
          network=0,
          total=t.storage + t.device,
          software=0,
          storage=t.storage,
          transfer=t.device)


def test_local_host_read():
    cluster, request = first_access("H")
    t = Terms(cluster)
    software = t.sw + t.rpc
    check(request,
          stages={"software": software, "queue": 0, "tag": 0,
                  "storage": t.storage, "device": t.device,
                  "pcie": t.pcie_up, "interrupt": t.interrupt},
          network=0,
          total=software + t.storage + t.device + t.pcie_up + t.interrupt,
          software=software,
          storage=t.storage,
          transfer=t.device + t.pcie_up + t.interrupt)


def test_isp_f():
    cluster, request = first_access("ISP-F")
    t = Terms(cluster)
    check(request,
          stages={"queue": 0, "tag": 0, "storage": t.storage,
                  "device": t.device},
          network=2 * t.hop,
          total=(t.request_wire + t.hop + t.storage + t.device
                 + t.reply_wire + t.hop),
          software=0,
          storage=t.storage,
          transfer=t.request_wire + t.device + t.reply_wire)


def test_h_f():
    cluster, request = first_access("H-F")
    t = Terms(cluster)
    software = t.sw + t.rpc
    check(request,
          stages={"software": software, "queue": 0, "tag": 0,
                  "storage": t.storage, "device": t.device,
                  "pcie": t.pcie_up, "interrupt": t.interrupt},
          network=2 * t.hop,
          total=(software + t.request_wire + t.hop + t.storage + t.device
                 + t.reply_wire + t.hop + t.pcie_up + t.interrupt),
          software=software,
          storage=t.storage,
          transfer=(t.request_wire + t.device + t.reply_wire + t.pcie_up
                    + t.interrupt))


def test_h_rh_f():
    cluster, request = first_access("H-RH-F")
    t = Terms(cluster)
    # Local request, Ethernet RPC, NIC wakeup, the remote host's own
    # read (request + portal write), its block-I/O tax, its response.
    software = (t.sw + t.eth_rpc + cluster.NIC_WAKEUP_NS + t.sw + t.rpc
                + cluster.REMOTE_BLOCKIO_NS + t.sw)
    # Up the remote PCIe, back down it, up the local one.
    pcie = t.pcie_up + t.pcie_down + t.pcie_up
    interrupts = 2 * t.interrupt
    check(request,
          stages={"software": software, "queue": 0, "tag": 0,
                  "storage": t.storage, "device": t.device,
                  "pcie": pcie, "interrupt": interrupts},
          # Only the reply crosses the integrated network.
          network=t.hop,
          total=(software + t.eth_wire + t.storage + t.device + pcie
                 + interrupts + t.reply_wire + t.hop),
          software=software,
          storage=t.storage,
          transfer=(t.eth_wire + t.device + pcie + interrupts
                    + t.reply_wire))


def test_h_d():
    cluster, request = first_access("H-D")
    t = Terms(cluster)
    # Local request, Ethernet RPC, NIC wakeup, remote request, response.
    software = t.sw + t.eth_rpc + cluster.NIC_WAKEUP_NS + t.sw + t.sw
    pcie = t.pcie_down + t.pcie_up
    check(request,
          stages={"software": software, "pcie": pcie,
                  "interrupt": t.interrupt},
          network=t.hop,
          total=(software + t.eth_wire + t.dram + pcie + t.interrupt
                 + t.reply_wire + t.hop),
          software=software,
          storage=0,
          transfer=(t.eth_wire + t.dram + pcie + t.interrupt
                    + t.reply_wire))


def test_default_parameters_give_the_figure12_totals():
    """The paper-default parameters put numbers on the closed forms."""
    expected = {"ISP-F": (0, 116_770, 960), "H-F": (15_000, 141_890, 960),
                "H-RH-F": (203_000, 348_717, 480),
                "H-D": (102_000, 130_721, 480)}
    for path, (software, total, network) in expected.items():
        _, request = first_access(path)
        components = RequestTracer.figure12_components(request)
        assert (components["software"], request.total_ns,
                components["network"]) == (software, total, network), path


@pytest.mark.parametrize("path", PATHS)
def test_fig12_reports_the_first_requests_components(path):
    """``repro run fig12`` takes its columns from the same ledger."""
    _, request = first_access(path)
    components, tracer = measure_path(path)
    assert components == RequestTracer.figure12_components(request)
    assert tracer.overall_latency().mean == request.total_ns

