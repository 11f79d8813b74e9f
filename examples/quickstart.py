"""Quickstart: one BlueDBM node, end to end, via the scenario API.

A :class:`~repro.api.ScenarioSpec` describes the machine (here: the
shared scaled-down benchmark geometry); a :class:`~repro.api.Session`
builds the simulator and the node from it.  The workload then follows
the Section 4 dataflow of the paper: write a file through the RFS
log-structured file system, query the file's *physical* flash
locations, register them with the Flash Server's address translation
unit, and stream the file through the in-store processor port.

Run:  python examples/quickstart.py
"""

from repro.api import ScenarioSpec, Session
from repro.sim import Store, units

SPEC = ScenarioSpec(name="quickstart")  # one node, shared bench geometry


def main():
    session = Session(SPEC)
    sim, node = session.sim, session.node
    geometry = SPEC.geometry
    print(f"node capacity : {geometry.node_bytes / 1e9:.1f} GB "
          f"(scaled from the paper's 1 TB)")
    print(f"flash ceiling : {node.peak_flash_bandwidth():.1f} GB/s")

    payload = b"BlueDBM quickstart page. " * 400  # ~10 KB -> 2 pages

    def workload(sim):
        # 1. Write a file through the log-structured file system.
        yield from node.fs.write_file("demo.dat", payload)

        # 2. Ask the FS where the file physically lives (Section 4 (1)).
        extents = node.fs.physical_extents("demo.dat")
        print(f"file extents  : {[str(a) for a in extents]}")

        # 3. Register with the Flash Server's ATU and stream through the
        #    in-store processor port (Section 4 (2)-(3)).
        handle = node.flash_server.register_file("demo.dat", extents)
        out = Store(sim)
        sim.process(node.flash_server.stream_file(handle.handle_id, out))
        t0 = sim.now
        data = bytearray()
        for _ in range(len(extents)):
            data.extend((yield out.get()))
        isp_ns = sim.now - t0
        assert bytes(data[:len(payload)]) == payload
        print(f"ISP stream    : {len(extents)} pages in "
              f"{units.to_us(isp_ns):.1f} us")

        # 4. Compare: the same pages read by host software over PCIe.
        t0 = sim.now
        for addr in extents:
            yield sim.process(node.host_read(addr))
        host_ns = sim.now - t0
        print(f"host reads    : same pages in "
              f"{units.to_us(host_ns):.1f} us "
              f"(syscall + RPC + PCIe + interrupt per page)")

    sim.run_process(workload(sim))
    print(f"simulated time: {units.to_ms(sim.now):.2f} ms")

    # The session traced every request; ask it where the time went.
    stages = session.tracer.stage_summary()
    if "storage" in stages:
        print(f"traced storage stage: {stages['storage']['count']:.0f} "
              f"accesses, mean "
              f"{units.to_us(stages['storage']['mean_ns']):.1f} us")


if __name__ == "__main__":
    main()
