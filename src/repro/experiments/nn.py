"""Figures 16-19: the nearest-neighbour study, plus its shared builders.

All runners return throughput in *comparisons per second* of 8 KB
items, the figures' y axis.  Calibration anchors (Section 7.1):

* BlueDBM baseline: 2.4 GB/s of flash / 8 KB ~= 293K cmp/s (paper 320K);
* Throttled BlueDBM: 600 MB/s ~= 73K cmp/s;
* host software: 12.5 us/comparison/core, so ~4 threads match one node.
"""

from __future__ import annotations

import random

from ..api import (
    BENCH_GEOMETRY,
    THROTTLED_TIMING,
    RunResult,
    ScenarioSpec,
    Session,
    experiment,
)
from ..apps import (
    LSHIndex,
    NearestNeighborISP,
    SoftwareNN,
    TieredPageStore,
    make_item_corpus,
)
from ..devices import CommoditySSD, DRAMStore, HardDisk
from ..host import HostConfig, HostCPU
from ..sim import Simulator, units

# A multiple of the node's 128 chips so the striped layout loads every
# bus evenly (an uneven stripe bottlenecks the doubly-loaded buses).
N_ITEMS = 256
ITEM_BYTES = BENCH_GEOMETRY.page_size
N_COMPARISONS = 512


def corpus():
    return make_item_corpus(N_ITEMS, ITEM_BYTES, seed=42, n_clusters=4)


def _node_session(throttled: bool) -> Session:
    return Session(ScenarioSpec(
        name="nn-node", geometry=BENCH_GEOMETRY,
        timing=THROTTLED_TIMING if throttled else None))


def isp_rate(throttled: bool = False) -> float:
    """In-store accelerated comparisons/s on one node."""
    session = _node_session(throttled)
    sim, node = session.sim, session.node
    app = NearestNeighborISP(node, n_engines=8)
    items = corpus()
    app.load(items, LSHIndex(ITEM_BYTES, seed=1))

    def proc(sim):
        rate = yield from app.throughput_run(items[0], 4 * N_COMPARISONS)
        return rate

    return sim.run_process(proc(sim))


def software_rate(threads: int, backend: str,
                  dram_gbs: float = 40.0,
                  miss_fraction: float = 0.0,
                  sequential: bool = False) -> float:
    """Host-software comparisons/s against a chosen storage backend.

    backend: 'dram' | 'dram+ssd' | 'dram+hdd' | 'ssd' | 'bluedbm-t'
    """
    sim = Simulator()
    cpu = HostCPU(sim, HostConfig())
    items = corpus()

    if backend == "bluedbm-t":
        node = _node_session(throttled=True).node
        # Re-bind to the node's simulator so one clock rules the run.
        sim = node.sim
        addr_of = {}
        for slot, (item_id, data) in enumerate(sorted(items.items())):
            addr = BENCH_GEOMETRY.striped(slot)
            node.device.store.program(addr, data)
            addr_of[item_id] = addr

        def read_fn(page):
            return (yield from node.host_read(addr_of[page]))

        cpu = node.cpu
    elif backend == "ssd":
        ssd = CommoditySSD(sim, page_size=ITEM_BYTES)
        if sequential:
            # Items laid out contiguously for the arranged-sequential
            # experiment (H-SFlash).
            for i, data in items.items():
                ssd.store(i, data)
        else:
            # Scatter items across the device so random bucket accesses
            # are genuinely random (a real corpus is millions of items).
            for i, data in items.items():
                ssd.store(i * 1009 + 17, data)
        read_fn = ssd.read
    else:
        dram = DRAMStore(sim, page_size=ITEM_BYTES, bandwidth_gbs=dram_gbs)
        for i, data in items.items():
            dram.store(i, data)
        if backend == "dram":
            read_fn = dram.read
        else:
            secondary = (CommoditySSD(sim, page_size=ITEM_BYTES)
                         if backend == "dram+ssd"
                         else HardDisk(sim, page_size=ITEM_BYTES))
            for i, data in items.items():
                secondary.store(i, data)
            tiered = TieredPageStore(sim, dram, secondary, miss_fraction,
                                     seed=7)
            read_fn = tiered.read

    app = SoftwareNN(sim, cpu, read_fn)
    if sequential:
        # Arrange pages so each thread's successive reads are
        # consecutive device pages (Figure 18's H-SFlash trick).
        per = N_ITEMS // threads or 1
        pages = [0] * N_ITEMS
        for j in range(N_ITEMS):
            t, i = j % threads, j // threads
            pages[j] = (t * per + i) % N_ITEMS
    else:
        rng = random.Random(3)
        pages = [rng.randrange(N_ITEMS) for _ in range(N_ITEMS)]
        if backend == "ssd":
            # Match the scattered on-device layout.
            pages = [p * 1009 + 17 for p in pages]

    def proc(sim):
        rate = yield from app.run(items[0], pages, threads=threads,
                                  n_comparisons=N_COMPARISONS)
        return rate

    return sim.run_process(proc(sim))


def pipelined_host_rate(n_comparisons: int = N_COMPARISONS) -> float:
    """Async host software on unthrottled BlueDBM: PCIe-bound.

    Deeply pipelined reads (kernel-bypass style) so the 1.6 GB/s PCIe
    link, not thread count, is the limiter — the paper's explanation of
    why software tops out below the ISP even with ideal software.
    """
    session = _node_session(throttled=False)
    sim, node = session.sim, session.node
    items = corpus()
    addrs = []
    for slot, (item_id, data) in enumerate(sorted(items.items())):
        addr = BENCH_GEOMETRY.striped(slot)
        node.device.store.program(addr, data)
        addrs.append(addr)

    done = []

    def one(i):
        yield from node.host_read(addrs[i % len(addrs)],
                                  software_path=False)
        yield from node.cpu.compute(SoftwareNN.COMPARE_NS_PER_8K)
        done.append(sim.now)

    sim.run_process(sim.pipeline(
        (one(i) for i in range(n_comparisons)), 128))
    return n_comparisons / units.to_s(max(done))


# ----------------------------------------------------------------------
# Figure 16: BlueDBM vs DRAM-resident software, thread scaling
# ----------------------------------------------------------------------
FIG16_THREADS = [2, 4, 6, 8, 10, 12, 14, 16]
# Effective random-8KB host memory bandwidth for the DRAM-resident
# baseline (hash + fetch path), which caps the curve at high threads.
FIG16_DRAM_GBS = 5.0


@experiment("fig16", title="nearest neighbour vs host DRAM",
            produces="benchmarks/test_fig16_nn_scaling.py",
            label="Figure 16")
def run_fig16() -> RunResult:
    dram = [software_rate(t, "dram", dram_gbs=FIG16_DRAM_GBS)
            for t in FIG16_THREADS]
    baseline = isp_rate(throttled=False)
    throttled = isp_rate(throttled=True)

    result = RunResult("fig16")
    result.series = {"threads": FIG16_THREADS, "dram": dram,
                     "baseline": baseline, "throttled": throttled}
    result.metrics = {"dram": dram, "baseline": baseline,
                      "throttled": throttled}
    result.add_table(
        "fig16_nn_scaling",
        "Figure 16: nearest neighbour with BlueDBM vs host DRAM",
        ["threads", "H-DRAM (cmp/s)", "1 Node (cmp/s, paper 320K)",
         "Throttled (cmp/s)"],
        [[t, round(d), round(baseline), round(throttled)]
         for t, d in zip(FIG16_THREADS, dram)])
    return result


# ----------------------------------------------------------------------
# Figure 17: the RAMCloud cliff
# ----------------------------------------------------------------------
FIG17_THREADS = [1, 2, 3, 4, 5, 6, 7, 8]


@experiment("fig17", title="the RAMCloud cliff",
            produces="benchmarks/test_fig17_nn_dram_cliff.py",
            label="Figure 17")
def run_fig17() -> RunResult:
    dram = [software_rate(t, "dram") for t in FIG17_THREADS]
    flash10 = [software_rate(t, "dram+ssd", miss_fraction=0.10)
               for t in FIG17_THREADS]
    disk5 = [software_rate(t, "dram+hdd", miss_fraction=0.05)
             for t in FIG17_THREADS]
    isp = isp_rate(throttled=True)

    result = RunResult("fig17")
    result.series = {"threads": FIG17_THREADS, "dram": dram,
                     "flash10": flash10, "disk5": disk5, "isp": isp}
    result.metrics = {"dram": dram, "flash10": flash10, "disk5": disk5,
                      "isp": isp}
    result.add_table(
        "fig17_nn_dram_cliff",
        "Figure 17: nearest neighbour with mostly-DRAM storage "
        "(paper at 8 threads: DRAM 350K, 10% flash <80K, 5% disk <10K)",
        ["threads", "DRAM", "ISP (throttled)", "10% Flash", "5% Disk"],
        [[t, round(d), round(isp), round(f), round(k)]
         for t, d, f, k in zip(FIG17_THREADS, dram, flash10, disk5)])
    return result


# ----------------------------------------------------------------------
# Figure 18: the off-the-shelf SSD, random vs arranged-sequential
# ----------------------------------------------------------------------
@experiment("fig18", title="commodity SSD random vs sequential",
            produces="benchmarks/test_fig18_nn_ssd.py",
            label="Figure 18")
def run_fig18() -> RunResult:
    rand = [software_rate(t, "ssd") for t in FIG17_THREADS]
    seq = [software_rate(t, "ssd", sequential=True)
           for t in FIG17_THREADS]
    isp = isp_rate(throttled=True)

    result = RunResult("fig18")
    result.series = {"threads": FIG17_THREADS, "random": rand,
                     "sequential": seq, "isp": isp}
    result.metrics = {"random": rand, "sequential": seq, "isp": isp}
    result.add_table(
        "fig18_nn_ssd",
        "Figure 18: nearest neighbour on off-the-shelf SSD "
        "(paper: random poor, sequential ~matches throttled ISP)",
        ["threads", "ISP (throttled)", "Seq Flash",
         "Full Flash (random)"],
        [[t, round(isp), round(s), round(r)]
         for t, s, r in zip(FIG17_THREADS, seq, rand)])
    return result


# ----------------------------------------------------------------------
# Figure 19: in-store processing vs host software on the same hardware
# ----------------------------------------------------------------------
@experiment("fig19", title="in-store processing advantage",
            produces="benchmarks/test_fig19_nn_isp.py",
            label="Figure 19")
def run_fig19() -> RunResult:
    software = [software_rate(t, "bluedbm-t") for t in FIG17_THREADS]
    isp_throttled = isp_rate(throttled=True)
    isp_full = isp_rate(throttled=False)
    software_pipelined = pipelined_host_rate(n_comparisons=2048)

    result = RunResult("fig19")
    result.series = {"threads": FIG17_THREADS, "software": software,
                     "isp_throttled": isp_throttled,
                     "isp_full": isp_full,
                     "software_pipelined": software_pipelined}
    result.metrics = dict(result.series)
    result.add_table(
        "fig19_nn_isp",
        "Figure 19: nearest neighbour with in-store processing "
        "(paper: ISP >= 20% over host software)",
        ["threads", "ISP (throttled)", "BlueDBM+SW (throttled)"],
        [[t, round(isp_throttled), round(s)]
         for t, s in zip(FIG17_THREADS, software)])
    result.add_table(
        "fig19_unthrottled",
        "Figure 19 discussion: unthrottled — software hits the "
        "1.6 GB/s PCIe wall (paper: ISP advantage 30%+)",
        ["Configuration", "cmp/s"],
        [["ISP, full bandwidth", round(isp_full)],
         ["Host software, pipelined (PCIe-bound)",
          round(software_pipelined)]])
    return result
