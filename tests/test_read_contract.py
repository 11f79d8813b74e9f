"""The read contract: every read entry returns the page's bytes.

A page read carries no completion record: the card, the device, a
splitter port (direct or through its coalescer), the host interface
(physical and logical), the node's access paths and a Flash Server
stream all hand back exactly the bytes that were written.
"""

import pytest

from repro.core import BlueDBMNode
from repro.flash import FlashGeometry, FlashSplitter, FlashTiming, PhysAddr
from repro.sim import Simulator, Store
from repro.volume import LogicalVolume

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=4,
                    pages_per_block=4, page_size=256, cards_per_node=2)
FAST = FlashTiming(t_read_ns=500, t_prog_ns=1000, t_erase_ns=2000,
                   bus_bytes_per_ns=1.0, aurora_bytes_per_ns=3.3,
                   aurora_latency_ns=5, cmd_overhead_ns=5)
ADDR = PhysAddr(card=1, bus=1, chip=0, block=2, page=1)
PAYLOAD = bytes(range(256))


def card_read_page(node):
    return (yield from node.device.card_of(ADDR).read_page(ADDR))


def card_read_pages(node):
    datas = yield from node.device.card_of(ADDR).read_pages([ADDR])
    return datas[0]


def device_read_page(node):
    return (yield from node.device.read_page(ADDR))


def port_read_page(node):
    return (yield from node.isp_port.read_page(ADDR))


def coalesced_port_read_page(node):
    port = FlashSplitter(node.sim, node.device, coalesce=True).add_port()
    return (yield from port.read_page(ADDR))


def host_read_page(node):
    return (yield from node.host.read_page(ADDR))


def host_read_lpn(node):
    volume = LogicalVolume(node.sim, node.device,
                           node.splitter.add_port(tenant="volume-gc"))
    yield from node.host.write_lpn(volume, 3, PAYLOAD)
    return (yield from node.host.read_lpn(volume, 3))


def node_isp_read(node):
    return (yield from node.isp_read(ADDR))


def node_net_read(node):
    return (yield from node.net_read(ADDR))


def flash_server_stream(node):
    out = Store(node.sim)
    node.sim.process(node.flash_server.stream_pages([ADDR], out))
    return (yield out.get())


@pytest.mark.parametrize("read", [
    card_read_page, card_read_pages, device_read_page, port_read_page,
    coalesced_port_read_page, host_read_page, host_read_lpn,
    node_isp_read, node_net_read, flash_server_stream],
    ids=lambda read: read.__name__)
def test_every_read_entry_returns_the_written_bytes(read):
    sim = Simulator()
    node = BlueDBMNode(sim, geometry=GEO, flash_timing=FAST)
    node.device.store.program(ADDR, PAYLOAD)
    data = sim.run_process(read(node))
    assert type(data) is bytes
    assert data == PAYLOAD
