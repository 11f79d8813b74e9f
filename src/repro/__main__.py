"""Command-line entry point: ``python -m repro <command>`` / ``repro``.

Commands
--------
``info``
    Print the modeled appliance's configuration and derived limits.
``demo``
    Run a one-minute tour: node assembly, a file through the FS, an
    in-store stream, and a remote read over the integrated network.
``list`` (alias: ``experiments``)
    Print the experiment registry: every reproduced table/figure, its
    id, and the benchmark that asserts it.
``run <id> [--json PATH] [--jobs N]``
    Run one registered experiment, print its tables, and optionally
    save the machine-readable :class:`~repro.api.RunResult` as JSON.
    ``--jobs N`` fans the experiment's sweep points across N worker
    processes; the result is byte-identical to ``--jobs 1``.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .flash import DEFAULT_GEOMETRY, FlashTiming
from .host import HostConfig
from .network import NetworkConfig
from .reporting import NodePower, PowerModel


def cmd_info(args=None) -> int:
    geometry = DEFAULT_GEOMETRY
    timing = FlashTiming()
    host = HostConfig()
    net = NetworkConfig()
    power = NodePower()
    print(f"BlueDBM reproduction v{__version__} (ISCA 2015)")
    print("\nper node:")
    print(f"  flash           : {geometry.node_bytes / 1e12:.1f} TB in "
          f"{geometry.cards_per_node} cards x {geometry.buses_per_card} "
          f"buses x {geometry.chips_per_bus} chips")
    print(f"  page / block    : {geometry.page_size} B / "
          f"{geometry.pages_per_block} pages")
    print(f"  flash bandwidth : "
          f"{timing.bus_bytes_per_ns * geometry.buses_per_card * geometry.cards_per_node:.1f} GB/s "
          f"(read latency {timing.t_read_ns / 1000:.0f} us)")
    print(f"  PCIe            : {host.pcie_dev_to_host_gbs} GB/s to host, "
          f"{host.pcie_host_to_dev_gbs} GB/s to device")
    print(f"  page buffers    : {host.read_buffers} read + "
          f"{host.write_buffers} write")
    print(f"  power           : {power.total_w:.0f} W "
          f"({power.added_fraction:.0%} added by BlueDBM)")
    print("\nnetwork:")
    print(f"  link            : {net.link_gbps:.0f} Gb/s, "
          f"{net.hop_latency_ns / 1000:.2f} us/hop, "
          f"{net.protocol_efficiency:.0%} payload efficiency")
    print(f"  ports per node  : 8 (ring/mesh/star/fat-tree topologies)")
    rack = PowerModel(n_nodes=20)
    print(f"\n20-node rack    : {rack.capacity_bytes / 1e12:.0f} TB, "
          f"{rack.cluster_w / 1000:.1f} kW")
    return 0


def cmd_demo(args=None) -> int:
    from .api import BENCH_GEOMETRY, ScenarioSpec, Session
    from .flash import PhysAddr
    from .sim import Store, units

    session = Session(ScenarioSpec(name="demo", n_nodes=3,
                                   geometry=BENCH_GEOMETRY))
    sim, cluster = session.sim, session.cluster
    node = session.node
    print("built a 3-node cluster (ring, 4 lanes/side)")

    def tour(sim):
        yield from node.fs.write_file("tour.dat", b"hello flash" * 3000)
        extents = node.fs.physical_extents("tour.dat")
        print(f"wrote tour.dat -> {len(extents)} pages at "
              f"{[str(a) for a in extents[:2]]}...")
        handle = node.flash_server.register_file("tour.dat", extents)
        out = Store(sim)
        sim.process(node.flash_server.stream_file(handle.handle_id, out))
        t0 = sim.now
        for _ in range(len(extents)):
            yield out.get()
        print(f"ISP streamed it in {units.to_us(sim.now - t0):.1f} us")
        remote = PhysAddr(node=1, page=3)
        cluster.nodes[1].device.store.program(remote, b"remote page")
        t0 = sim.now
        data = yield from cluster.isp_remote_flash(0, remote)
        network_ns = 2 * cluster.network.propagation_ns(0, 1)
        print(f"remote ISP-F read: {data[:11]!r} in "
              f"{units.to_us(sim.now - t0):.1f} us "
              f"(network part {units.to_us(network_ns):.2f} us)")

    sim.run_process(tour(sim))
    print(f"total simulated time: {units.to_ms(sim.now):.2f} ms")
    return 0


def cmd_list(args=None) -> int:
    from .api import all_experiments

    experiments = all_experiments()
    id_width = max(len(e.exp_id) for e in experiments)
    label_width = max(len(e.label) for e in experiments)
    for exp in experiments:
        print(f"{exp.exp_id:{id_width}s}  {exp.label:{label_width}s}  "
              f"{exp.title:40s} {exp.produces}")
    print(f"\nrun one: repro run <id> [--json PATH]; "
          f"run them all: pytest benchmarks/ --benchmark-only -s")
    return 0


def cmd_run(args) -> int:
    from .api import get_experiment, run_experiment
    from .faults import set_fault_seed_override

    try:
        exp = get_experiment(args.experiment)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.fault_seed is not None:
        set_fault_seed_override(args.fault_seed)
    # Outside the try: a KeyError raised by the experiment itself is a
    # bug that must surface as a traceback, not an unknown-id message.
    result = run_experiment(exp.exp_id, jobs=args.jobs)
    print(result.render())
    if args.json:
        result.save(args.json)
        print(f"\nsaved machine-readable result to {args.json}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="BlueDBM reproduction toolkit")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("info", help="appliance configuration and limits")
    sub.add_parser("demo", help="one-minute tour of the appliance")
    sub.add_parser("list", help="list every registered experiment")
    # Backwards-compatible alias for ``list``.
    sub.add_parser("experiments", help=argparse.SUPPRESS)
    run_parser = sub.add_parser("run", help="run a registered experiment")
    run_parser.add_argument("experiment", help="experiment id (see list)")
    run_parser.add_argument("--json", metavar="PATH", default=None,
                            help="save the RunResult as JSON to PATH")
    run_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="worker processes for sweep points "
                                 "(results byte-identical to --jobs 1; "
                                 "default: 1)")
    run_parser.add_argument("--fault-seed", type=int, default=None,
                            metavar="N",
                            help="override every FaultSpec's seed (only "
                                 "affects experiments that inject "
                                 "faults; propagates to --jobs workers)")
    args = parser.parse_args()
    handlers = {"info": cmd_info, "demo": cmd_demo, "list": cmd_list,
                "experiments": cmd_list, "run": cmd_run, None: cmd_info}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
