"""FPGA resource model: re-derives Tables 1 and 2 from design parameters.

The paper's resource tables are static inventories of the synthesized
design.  We reproduce them as a *parametric model*: per-module base
costs (calibrated to the paper's numbers for the paper's configuration)
scaled by the configuration knobs — buses per card, DMA engines, network
ports, page buffers.  Reconfigure the appliance and the model tells you
whether it still fits the parts, which is the question the tables answer.

Paper reference points (Tables 1-2):

* Artix-7 flash controller: bus controller x8 at 7131 LUTs each (ECC
  decoder x2, scoreboard, PHY, ECC encoder x2 inside), SerDes 3061;
  total 75225 LUTs (56 %), 62801 regs, 181 BRAM (50 %).
* Virtex-7 host: flash interface 1389, network interface 29591, DRAM
  interface 11045, host interface 88376; total 135271 LUTs (45 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..flash import DEFAULT_GEOMETRY, FlashGeometry
from ..host import HostConfig

__all__ = ["ModuleUsage", "artix7_flash_controller", "virtex7_host",
           "ARTIX7_LUTS", "ARTIX7_REGS", "ARTIX7_BRAM",
           "VIRTEX7_LUTS", "VIRTEX7_REGS"]

# Device capacities (XC7A200T and XC7VX485T).
ARTIX7_LUTS = 134_600
ARTIX7_REGS = 269_200
ARTIX7_BRAM = 365
VIRTEX7_LUTS = 303_600
VIRTEX7_REGS = 607_200


@dataclass(frozen=True)
class ModuleUsage:
    """One row of a resource table.

    ``submodule`` rows are informational breakdowns of a parent row
    (e.g. the ECC decoder inside the bus controller) and are excluded
    from totals.
    """

    name: str
    count: int
    luts: int
    registers: int
    bram: int = 0
    submodule: bool = False

    @property
    def total_luts(self) -> int:
        return self.count * self.luts

    @property
    def total_registers(self) -> int:
        return self.count * self.registers

    @property
    def total_bram(self) -> int:
        return self.count * self.bram


# -- Table 1: flash controller on the Artix-7 -----------------------------
# Per-instance costs from the paper's table.
_ECC_DECODER = ModuleUsage("ECC Decoder", 2, 1790, 1233, 2,
                           submodule=True)
_SCOREBOARD = ModuleUsage("Scoreboard", 1, 1149, 780, 0, submodule=True)
_PHY = ModuleUsage("PHY", 1, 1635, 607, 0, submodule=True)
_ECC_ENCODER = ModuleUsage("ECC Encoder", 2, 565, 222, 0, submodule=True)
_SERDES = ModuleUsage("SerDes", 1, 3061, 3463, 13)

# A bus controller is its submodules plus scheduling/buffer glue; the glue
# constant makes the per-instance total match the paper's 7131 LUTs.
_BUS_GLUE_LUTS = 7131 - (2 * 1790 + 1149 + 1635 + 2 * 565)
_BUS_GLUE_REGS = 4870 - (2 * 1233 + 780 + 607 + 2 * 222)
_BUS_GLUE_BRAM = 21 - (2 * 2)

# Infrastructure (clocking, FMC, config, AXI glue) = paper total minus the
# explicitly listed modules, for the default 8-bus card.
_ARTIX_INFRA_LUTS = 75_225 - (8 * 7131 + 3061)
_ARTIX_INFRA_REGS = 62_801 - (8 * 4870 + 3463)
_ARTIX_INFRA_BRAM = 181 - (8 * 21 + 13)


def artix7_flash_controller(
        geometry: FlashGeometry = DEFAULT_GEOMETRY) -> List[ModuleUsage]:
    """Table 1 rows for a card with ``geometry.buses_per_card`` buses."""
    buses = geometry.buses_per_card
    bus_controller = ModuleUsage(
        "Bus Controller", buses,
        2 * _ECC_DECODER.luts + _SCOREBOARD.luts + _PHY.luts
        + 2 * _ECC_ENCODER.luts + _BUS_GLUE_LUTS,
        2 * _ECC_DECODER.registers + _SCOREBOARD.registers
        + _PHY.registers + 2 * _ECC_ENCODER.registers + _BUS_GLUE_REGS,
        2 * _ECC_DECODER.bram + _BUS_GLUE_BRAM)
    rows = [
        bus_controller,
        _ECC_DECODER,
        _SCOREBOARD,
        _PHY,
        _ECC_ENCODER,
        _SERDES,
        ModuleUsage("Infrastructure", 1, _ARTIX_INFRA_LUTS,
                    _ARTIX_INFRA_REGS, _ARTIX_INFRA_BRAM),
    ]
    return rows


# -- Table 2: host-side design on the Virtex-7 -----------------------------
_FLASH_IF_LUTS_PER_CARD = 1389 // 2       # aurora endpoint per card
_NET_IF_LUTS_PER_PORT = 29_591 // 8       # switch + SerDes per port
_NET_IF_REGS_PER_PORT = 27_509 // 8
_DRAM_IF = ModuleUsage("DRAM Interface", 1, 11_045, 7_937, 0)
# Host interface: Connectal portal + DMA engines + per-buffer FIFOs.
_HOST_BASE_LUTS = 40_000
_HOST_PER_ENGINE_LUTS = (88_376 - _HOST_BASE_LUTS) // 8  # 4 rd + 4 wr
_HOST_BASE_REGS = 20_000
_HOST_PER_ENGINE_REGS = (46_065 - _HOST_BASE_REGS) // 8
_HOST_RAMB36_PER_BUFFER = 169 / 256.0     # 128 read + 128 write buffers
# Clocking/config/AXI infrastructure: the paper's totals (135271 LUTs,
# 135897 regs, 224 RAMB36) exceed the listed modules by this much.
_VIRTEX_INFRA = ModuleUsage(
    "Infrastructure", 1,
    135_271 - (1388 + 29_584 + 11_045 + 88_376),
    135_897 - (2139 + 27_504 + 7_937 + 46_064),
    224 - 169)


def virtex7_host(host: HostConfig = HostConfig()) -> List[ModuleUsage]:
    """Table 2 rows for the host FPGA design: two flash cards and eight
    network ports."""
    cards = DEFAULT_GEOMETRY.cards_per_node
    network_ports = 8
    engines = 2 * host.dma_engines
    buffers = host.read_buffers + host.write_buffers
    rows = [
        ModuleUsage("Flash Interface", 1,
                    _FLASH_IF_LUTS_PER_CARD * cards, 2139 * cards // 2, 0),
        ModuleUsage("Network Interface", 1,
                    _NET_IF_LUTS_PER_PORT * network_ports,
                    _NET_IF_REGS_PER_PORT * network_ports, 0),
        _DRAM_IF,
        ModuleUsage("Host Interface", 1,
                    _HOST_BASE_LUTS + _HOST_PER_ENGINE_LUTS * engines,
                    _HOST_BASE_REGS + _HOST_PER_ENGINE_REGS * engines,
                    int(round(_HOST_RAMB36_PER_BUFFER * buffers))),
        _VIRTEX_INFRA,
    ]
    return rows


def totals(rows: List[ModuleUsage]) -> ModuleUsage:
    """Sum a table's top-level rows into a Total row."""
    top = [r for r in rows if not r.submodule]
    return ModuleUsage(
        "Total", 1,
        sum(r.total_luts for r in top),
        sum(r.total_registers for r in top),
        sum(r.total_bram for r in top))


def fits_virtex7(rows: List[ModuleUsage]) -> bool:
    """Does the host design leave room for accelerators (<60% LUTs)?"""
    t = totals(rows)
    return t.total_luts <= 0.6 * VIRTEX7_LUTS
