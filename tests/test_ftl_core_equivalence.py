"""One FTL substrate: the two facades are behaviorally the same core.

:class:`~repro.ftl.ftl.BlockDeviceFTL` (device-driven) and
:class:`~repro.volume.LogicalVolume` (QoS-port-riding) are thin policy
shells over one shared :class:`~repro.ftl.core.FtlCore`.  This suite
pins the unification property: an identical LPN operation sequence
driven through both facades — the volume stripped of its QoS machinery
by the raw device as its GC port and a direct-to-device iface
stand-in — produces

* identical final logical-to-physical map state,
* identical write-amplification accounting (user writes, total
  programs, GC-moved pages, and the ``total = user + moved + stale``
  identity), and
* the identical GC victim *sequence* (greedy fewest-valid with the
  deterministic block-key tiebreak), by construction.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import FlashGeometry, FlashTiming
from repro.flash.device import StorageDevice
from repro.ftl import BlockDeviceFTL
from repro.sim import Simulator
from repro.volume import LogicalVolume

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=4,
                    pages_per_block=4, page_size=64, cards_per_node=1)
FAST = FlashTiming(t_read_ns=1000, t_prog_ns=2000, t_erase_ns=5000,
                   bus_bytes_per_ns=1.0, aurora_bytes_per_ns=3.3,
                   aurora_latency_ns=10, cmd_overhead_ns=10)
OVERPROVISION = 0.5
LOGICAL_PAGES = int(GEO.pages_per_node * (1.0 - OVERPROVISION))


class DirectIface:
    """A host 'interface' whose flows are bare device commands."""

    tenant = "vol"

    def __init__(self, device):
        self.device = device

    def _read_flow(self, addr, software_path, request, interrupt=True):
        result = yield from self.device.read_page(addr)
        return result

    def _write_flow(self, addr, data, software_path, request):
        yield from self.device.write_page(addr, data)


def drive_ftl(ops):
    sim = Simulator()
    device = StorageDevice(sim, geometry=GEO, timing=FAST)
    ftl = BlockDeviceFTL(sim, device, overprovision=OVERPROVISION,
                         gc_low_watermark=2)
    reads = []

    def driver(sim):
        for i, (kind, lpn) in enumerate(ops):
            if kind == "write":
                yield from ftl.write(lpn, f"d{i}".encode())
            elif kind == "trim":
                yield from ftl.trim(lpn)
            else:
                data = yield from ftl.read(lpn)
                reads.append(data)

    sim.run_process(driver(sim))
    return ftl.core, reads


def drive_volume(ops):
    sim = Simulator()
    device = StorageDevice(sim, geometry=GEO, timing=FAST)
    volume = LogicalVolume(sim, device, device,
                           overprovision=OVERPROVISION,
                           allocation="striped", gc_low_watermark=2)
    iface = DirectIface(device)
    reads = []

    def driver(sim):
        for i, (kind, lpn) in enumerate(ops):
            if kind == "write":
                yield from volume.write_flow(iface, lpn, f"d{i}".encode(),
                                             False, None)
            elif kind == "trim":
                volume.trim(lpn)
                yield sim.timeout(0)
            else:
                data = yield from volume.read_flow(lpn, iface, False,
                                                   None)
                reads.append(data)

    sim.run_process(driver(sim))
    return volume.core, reads


ops_strategy = st.lists(
    st.tuples(st.sampled_from(["write", "trim", "read"]),
              st.integers(min_value=0, max_value=LOGICAL_PAGES - 1)),
    min_size=1, max_size=80)


@settings(max_examples=25, deadline=None)
@given(ops_strategy)
def test_facades_are_the_same_ftl(ops):
    ftl_core, ftl_reads = drive_ftl(ops)
    vol_core, vol_reads = drive_volume(ops)

    # Identical final map state, page for page.
    assert (ftl_core.map.mapped_count == vol_core.map.mapped_count)
    for lpn in range(LOGICAL_PAGES):
        assert ftl_core.map.lookup(lpn) == vol_core.map.lookup(lpn), (
            f"LPN {lpn} diverged")

    # Identical GC victim sequence, by construction.
    assert ftl_core.gc_victims == vol_core.gc_victims
    assert ftl_core.gc_runs == vol_core.gc_runs

    # Identical write-amplification accounting (owners differ in name
    # only: 'ftl' vs the iface tenant).
    assert ftl_core.user_writes_total == vol_core.user_writes_total
    assert ftl_core.total_programs == vol_core.total_programs
    assert ftl_core.gc_moved_pages == vol_core.gc_moved_pages
    assert ftl_core.gc_stale_moves == vol_core.gc_stale_moves == 0
    assert (ftl_core.write_amplification()
            == vol_core.write_amplification())

    # The accounting identity holds on both facades.
    for core in (ftl_core, vol_core):
        assert core.total_programs == (core.user_writes_total
                                       + core.gc_moved_pages
                                       + core.gc_stale_moves)

    # Reads observed the same bytes in the same order.
    assert ftl_reads == vol_reads
