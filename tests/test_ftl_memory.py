"""Host memory the FTL state costs per mapped page.

BlueDBM keeps the mapping, validity and allocation state in host
software (Section 3.1), so its size per mapped page is a design figure:
a fully prefilled benchmark-geometry volume is measured with
``tracemalloc`` and bounded.  ``docs/architecture.md`` records the
measured value.
"""

import gc
import tracemalloc

from repro.api import BENCH_GEOMETRY
from repro.flash.device import StorageDevice
from repro.sim import Simulator
from repro.volume import LogicalVolume

#: Bound on FTL bytes per mapped page: the list L2P slot and its
#: address tuple, the per-block P2L array and the per-block state.
MAX_BYTES_PER_PAGE = 160


def test_prefilled_volume_bytes_per_mapped_page():
    sim = Simulator()
    device = StorageDevice(sim, geometry=BENCH_GEOMETRY)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        volume = LogicalVolume(sim, device, device, overprovision=0.25)
        volume.prefill(0, volume.logical_pages)
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    mapped = volume.core.map.mapped_count
    assert mapped == volume.logical_pages == 49_152
    assert used / mapped <= MAX_BYTES_PER_PAGE, used / mapped
