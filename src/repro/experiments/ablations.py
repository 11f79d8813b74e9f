"""Ablations: tagged interface depth, endpoint/lane routing, FTL
over-provisioning, and sequential stripe order."""

from __future__ import annotations

import random

from ..api import ONE_CARD_GEOMETRY, RunResult, ScenarioSpec, Session, \
    experiment
from ..flash import FlashCard, FlashGeometry, FlashTiming, PhysAddr
from ..flash.device import StorageDevice
from ..ftl import BlockDeviceFTL
from ..network import StorageNetwork, line
from ..sim import Simulator, Store, units

# ----------------------------------------------------------------------
# Ablation: tag-pool depth vs card bandwidth
# ----------------------------------------------------------------------
TAGS_GEO = FlashGeometry(buses_per_card=8, chips_per_bus=8,
                         blocks_per_chip=8, pages_per_block=16,
                         page_size=8192, cards_per_node=1)
TAG_COUNTS = [1, 4, 16, 64, 128]
N_TAG_READS = 512


def tag_bandwidth(tags: int) -> float:
    sim = Simulator()
    card = FlashCard(sim, geometry=TAGS_GEO, tags=tags)
    done = []

    def reader(i):
        yield from card.read_page(TAGS_GEO.striped(i))
        done.append(sim.now)

    sim.run_process(sim.pipeline(
        (reader(i) for i in range(N_TAG_READS)), 2 * tags + 8))
    return units.bandwidth_gbytes(N_TAG_READS * TAGS_GEO.page_size,
                                  max(done))


@experiment("ablation_tags", title="in-flight command tags vs bandwidth",
            produces="benchmarks/test_ablation_tags.py",
            label="Ablation")
def run_ablation_tags() -> RunResult:
    rates = {t: tag_bandwidth(t) for t in TAG_COUNTS}

    result = RunResult("ablation_tags")
    result.metrics["rates"] = rates
    result.add_table(
        "ablation_tags",
        "Ablation: in-flight command tags vs card bandwidth "
        "(card ceiling 1.2 GB/s)",
        ["Tags", "Bandwidth (GB/s)", "vs 1 tag"],
        [[t, f"{rates[t]:.3f}", f"{rates[t] / rates[1]:.1f}x"]
         for t in TAG_COUNTS])
    return result


# ----------------------------------------------------------------------
# Ablation: deterministic per-endpoint routing over parallel lanes
# ----------------------------------------------------------------------
N_ROUTE_MESSAGES = 60
ROUTE_SIZE = 512


def endpoint_gbps(n_endpoints_used: int) -> float:
    sim = Simulator()
    net = StorageNetwork(sim, line(2, lanes=4), n_endpoints=4)
    finished = []
    order_ok = []

    def sender(sim, ep):
        for i in range(N_ROUTE_MESSAGES):
            yield from net.endpoint(0, ep).send(1, i, ROUTE_SIZE)

    def receiver(sim, ep):
        got = []
        for _ in range(N_ROUTE_MESSAGES):
            message = yield from net.endpoint(1, ep).receive()
            got.append(message.payload)
        order_ok.append(got == list(range(N_ROUTE_MESSAGES)))
        finished.append(sim.now)

    for ep in range(n_endpoints_used):
        sim.process(sender(sim, ep))
        sim.process(receiver(sim, ep))
    sim.run()
    assert all(order_ok), "per-endpoint FIFO order violated"
    total = n_endpoints_used * N_ROUTE_MESSAGES * ROUTE_SIZE
    return units.bandwidth_gbps(total, max(finished))


@experiment("ablation_routing",
            title="endpoints spread over parallel lanes",
            produces="benchmarks/test_ablation_routing.py",
            label="Ablation")
def run_ablation_routing() -> RunResult:
    rates = {n: endpoint_gbps(n) for n in (1, 2, 4)}

    result = RunResult("ablation_routing")
    result.metrics["rates"] = rates
    result.add_table(
        "ablation_routing",
        "Ablation: endpoints spread over 4 parallel lanes "
        "(one lane = 8.2 Gb/s payload)",
        ["Endpoints", "Aggregate (Gb/s)", "Lanes used"],
        [[n, f"{rates[n]:.1f}", n] for n in (1, 2, 4)])
    return result


# ----------------------------------------------------------------------
# Ablation: FTL over-provisioning vs write amplification
# ----------------------------------------------------------------------
FTL_GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2,
                        blocks_per_chip=16, pages_per_block=16,
                        page_size=1024, cards_per_node=1)
FTL_FAST = FlashTiming(t_read_ns=1000, t_prog_ns=2000, t_erase_ns=5000,
                       bus_bytes_per_ns=1.0, cmd_overhead_ns=10,
                       aurora_latency_ns=10)
OVERPROVISION = [0.10, 0.25, 0.50]


def write_amplification(overprovision: float) -> tuple:
    sim = Simulator()
    device = StorageDevice(sim, geometry=FTL_GEO, timing=FTL_FAST)
    ftl = BlockDeviceFTL(sim, device, overprovision=overprovision,
                         gc_low_watermark=2)
    rng = random.Random(5)
    n_writes = 4 * FTL_GEO.pages_per_node

    def workload(sim):
        for i in range(n_writes):
            lpn = rng.randrange(ftl.logical_pages)
            yield from ftl.write(lpn, f"w{i}".encode())

    sim.run_process(workload(sim))
    return ftl.core.write_amplification(), len(ftl.core.gc_victims)


@experiment("ablation_ftl",
            title="FTL spare area vs GC write amplification",
            produces="benchmarks/test_ablation_ftl.py",
            label="Ablation")
def run_ablation_ftl() -> RunResult:
    measured = {op: write_amplification(op) for op in OVERPROVISION}

    result = RunResult("ablation_ftl")
    result.metrics["write_amp"] = {op: measured[op][0]
                                   for op in OVERPROVISION}
    result.metrics["gc_runs"] = {op: measured[op][1]
                                 for op in OVERPROVISION}
    result.add_table(
        "ablation_ftl",
        "Ablation: FTL spare area vs GC write amplification "
        "(random overwrites, greedy victim selection)",
        ["Over-provisioning", "Write amplification", "GC runs"],
        [[f"{op:.0%}", f"{measured[op][0]:.2f}", measured[op][1]]
         for op in OVERPROVISION])
    return result


# ----------------------------------------------------------------------
# Ablation: bus-fastest vs chip-fastest sequential striping
# ----------------------------------------------------------------------
STRIPE_GEO = ONE_CARD_GEOMETRY
N_STRIPE_PAGES = 512
N_STREAMS = 32


def chip_fastest(index: int) -> PhysAddr:
    """The naive layout: consecutive pages fill a bus's chips first."""
    n_units = STRIPE_GEO.buses_per_card * STRIPE_GEO.chips_per_bus
    unit = index % n_units
    offset = index // n_units
    chip = unit % STRIPE_GEO.chips_per_bus
    bus = unit // STRIPE_GEO.chips_per_bus
    return PhysAddr(card=0, bus=bus, chip=chip,
                    block=offset // STRIPE_GEO.pages_per_block,
                    page=offset % STRIPE_GEO.pages_per_block)


def stream_bandwidth(layout) -> float:
    session = Session(ScenarioSpec(name="ablation-striping",
                                   geometry=STRIPE_GEO,
                                   isp_queue_depth=4))
    sim, node = session.sim, session.node
    extents = [layout(i) for i in range(N_STRIPE_PAGES)]
    for addr in extents:
        node.device.store.program(addr, b"data")
    handle = node.flash_server.register_file("f", extents)
    per = N_STRIPE_PAGES // N_STREAMS
    done = []

    def consumer(k):
        out = Store(sim, capacity=2)
        sim.process(node.flash_server.stream_file(
            handle.handle_id, out, offsets=range(k * per, (k + 1) * per)))
        for _ in range(per):
            yield out.get()
        done.append(sim.now)

    for k in range(N_STREAMS):
        sim.process(consumer(k))
    sim.run()
    return units.bandwidth_gbytes(N_STRIPE_PAGES * STRIPE_GEO.page_size,
                                  max(done))


@experiment("ablation_striping",
            title="stripe order under parallel sequential streams",
            produces="benchmarks/test_ablation_striping.py",
            label="Ablation")
def run_ablation_striping() -> RunResult:
    rates = {
        "bus-fastest (BlueDBM)": stream_bandwidth(STRIPE_GEO.striped),
        "chip-fastest (naive)": stream_bandwidth(chip_fastest),
    }

    result = RunResult("ablation_striping")
    result.metrics["rates"] = rates
    result.add_table(
        "ablation_striping",
        "Ablation: stripe order under parallel sequential streams "
        "(card ceiling 1.2 GB/s)",
        ["Layout", "32-stream sequential read (GB/s)"],
        [[name, f"{gbs:.2f}"] for name, gbs in rates.items()])
    return result
