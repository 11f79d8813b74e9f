"""Host memory the FTL and node state cost.

BlueDBM keeps the mapping, validity and allocation state in host
software (Section 3.1), so its size per mapped page is a design figure:
a fully prefilled benchmark-geometry volume is measured with
``tracemalloc`` and bounded.  A node on the 1 TB default geometry must
cost what it uses, not what the device could hold: its file system is
built on first use.  ``docs/architecture.md`` records the measured
values.
"""

import gc
import tracemalloc

from repro.api import BENCH_GEOMETRY
from repro.core import BlueDBMNode
from repro.flash import DEFAULT_GEOMETRY
from repro.flash.device import StorageDevice
from repro.sim import Simulator
from repro.volume import LogicalVolume

#: Bound on FTL bytes per mapped page (36.4 measured): the 8-byte L2P
#: slot, the 8-byte P2L slot and the per-block state (valid count,
#: block key, program cursor) spread over the block's pages.
MAX_BYTES_PER_PAGE = 48
#: Bound on one default-geometry node before its file system is used
#: (0.2 MiB measured; building the RFS adds 78.6 MiB).
MAX_NODE_BYTES = 1 << 20


def traced_bytes(build):
    """``build()``'s result and the traced bytes it still holds."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        gc.collect()
        return built, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_prefilled_volume_bytes_per_mapped_page():
    sim = Simulator()
    device = StorageDevice(sim, geometry=BENCH_GEOMETRY)

    def prefilled():
        volume = LogicalVolume(sim, device, device, overprovision=0.25)
        volume.prefill(0, volume.logical_pages)
        return volume

    volume, used = traced_bytes(prefilled)
    mapped = volume.core.map.mapped_count
    assert mapped == volume.logical_pages == 49_152
    assert used / mapped <= MAX_BYTES_PER_PAGE, used / mapped


def test_default_geometry_node_builds_its_file_system_on_first_use():
    node, used = traced_bytes(lambda: BlueDBMNode(Simulator()))
    assert node.geometry == DEFAULT_GEOMETRY
    assert used < MAX_NODE_BYTES, used
    assert "fs" not in vars(node)
    fs = node.fs
    assert vars(node)["fs"] is fs and node.fs is fs
    assert fs.device is node.device
