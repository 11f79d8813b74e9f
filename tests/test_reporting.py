"""Tests for the power/resource models and table formatting."""

import pytest

from repro.flash import DEFAULT_GEOMETRY, FlashGeometry
from repro.host import HostConfig
from repro.reporting import (
    NodePower,
    PowerModel,
    artix7_flash_controller,
    fits_virtex7,
    format_table,
    ramcloud_equivalent,
    totals,
    virtex7_host,
)
from repro.reporting.resources import ARTIX7_BRAM, ARTIX7_LUTS, ARTIX7_REGS


class TestResourceModel:
    def test_table1_matches_paper_for_default_config(self):
        rows = artix7_flash_controller()
        by_name = {r.name: r for r in rows}
        assert by_name["Bus Controller"].count == 8
        assert by_name["Bus Controller"].luts == 7131
        assert by_name["ECC Decoder"].luts == 1790
        assert by_name["SerDes"].luts == 3061
        # Bus controllers + SerDes + infrastructure = the paper total.
        total = (by_name["Bus Controller"].total_luts
                 + by_name["SerDes"].total_luts
                 + by_name["Infrastructure"].total_luts)
        assert total == 75_225

    def test_table1_utilization_near_56_percent(self):
        rows = artix7_flash_controller()
        by_name = {r.name: r for r in rows}
        used = (by_name["Bus Controller"].total_luts
                + by_name["SerDes"].total_luts
                + by_name["Infrastructure"].total_luts)
        assert used / ARTIX7_LUTS == pytest.approx(0.56, abs=0.01)

    def test_fewer_buses_scale_down(self):
        small = FlashGeometry(buses_per_card=4)
        rows = artix7_flash_controller(small)
        by_name = {r.name: r for r in rows}
        assert by_name["Bus Controller"].count == 4
        t = totals(rows)
        assert t.total_luts <= ARTIX7_LUTS
        assert t.total_registers <= ARTIX7_REGS
        assert t.total_bram <= ARTIX7_BRAM

    def test_table2_matches_paper_for_default_config(self):
        rows = virtex7_host()
        by_name = {r.name: r for r in rows}
        assert by_name["DRAM Interface"].luts == 11_045
        assert by_name["Network Interface"].total_luts == pytest.approx(
            29_591, abs=8)
        assert by_name["Host Interface"].total_luts == pytest.approx(
            88_376, abs=8)
        # Room for accelerators: the paper's point about the Virtex-7.
        assert fits_virtex7(rows)

    def test_host_interface_scales_with_dma_engines(self):
        small = virtex7_host(host=HostConfig(dma_engines=2))
        big = virtex7_host(host=HostConfig(dma_engines=8))
        small_host = {r.name: r for r in small}["Host Interface"]
        big_host = {r.name: r for r in big}["Host Interface"]
        assert big_host.total_luts > small_host.total_luts

    def test_totals_helper_skips_submodules(self):
        rows = artix7_flash_controller()
        t = totals(rows)
        top = [r for r in rows if not r.submodule]
        assert t.total_luts == sum(r.total_luts for r in top)
        # Submodule rows exist but are excluded (they live inside the
        # bus controller row).
        assert any(r.submodule for r in rows)
        assert t.total_luts == 75_225


class TestPowerModel:
    def test_table3_rows(self):
        node = NodePower()
        rows = node.rows()
        assert rows["VC707"] == 30.0
        assert rows["Flash Board x2"] == 10.0
        assert rows["Xeon Server"] == 200.0
        assert rows["Node Total"] == 240.0

    def test_added_power_below_20_percent(self):
        assert NodePower().added_fraction < 0.20

    def test_cluster_power(self):
        model = PowerModel(n_nodes=20)
        assert model.cluster_w == 4800.0
        assert model.capacity_bytes == 20 * 10 ** 12

    def test_ramcloud_needs_order_of_magnitude_more_power(self):
        # 20 TB in DRAM at 50 GB/server vs the 20-node BlueDBM rack.
        bluedbm = PowerModel(n_nodes=20)
        cloud = ramcloud_equivalent(20 * 10 ** 12)
        assert cloud["servers"] == 400
        assert cloud["power_w"] > 10 * bluedbm.cluster_w

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerModel(n_nodes=0)
        with pytest.raises(ValueError):
            ramcloud_equivalent(0)


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [100, 3.25]])
        lines = text.strip().splitlines()
        assert lines[0].split() == ["a", "bb"]
        assert "100" in lines[3]

    def test_title_banner(self):
        text = format_table(["x"], [[1]], title="Figure 99")
        assert "Figure 99" in text
