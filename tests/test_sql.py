"""Tests for the in-store SQL filter engine and table scans."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.sql import FlashTable, TableScan, make_orders_table
from repro.core import BlueDBMNode
from repro.flash import FlashGeometry
from repro.isp.filter import Column, FilterEngine, Schema, col
from repro.sim import Simulator

GEO = FlashGeometry(buses_per_card=4, chips_per_bus=4, blocks_per_chip=16,
                    pages_per_block=16, page_size=2048, cards_per_node=2)


class TestColumnSchema:
    def test_int_roundtrip(self):
        c = Column("x", "int64")
        assert c.unpack(c.pack(-12345)) == -12345

    def test_str_roundtrip_and_padding(self):
        c = Column("s", "str8")
        assert c.width == 8
        assert c.unpack(c.pack("abc")) == "abc"

    def test_str_too_wide_rejected(self):
        with pytest.raises(ValueError):
            Column("s", "str4").pack("too long")

    def test_bad_kinds_rejected(self):
        with pytest.raises(ValueError):
            Column("x", "float")
        with pytest.raises(ValueError):
            Column("x", "strx")
        with pytest.raises(ValueError):
            Column("", "int64")

    def test_schema_row_roundtrip(self):
        schema = Schema([("a", "int64"), ("b", "str4")])
        row = {"a": 7, "b": "hi"}
        assert schema.unpack_row(schema.pack_row(row)) == row

    def test_schema_page_roundtrip(self):
        schema = Schema([("a", "int64")])
        rows = [{"a": i} for i in range(10)]
        page = schema.pack_page(rows, 2048)
        assert schema.unpack_page(page) == rows

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Schema([("a", "int64"), ("a", "str4")])

    def test_rows_per_page(self):
        schema = Schema([("a", "int64"), ("b", "int64")])
        assert schema.rows_per_page(2048) == 128

    @given(st.lists(st.integers(min_value=-2**62, max_value=2**62),
                    min_size=1, max_size=20))
    def test_page_roundtrip_property(self, values):
        schema = Schema([("v", "int64")])
        rows = [{"v": v} for v in values]
        assert schema.unpack_page(schema.pack_page(rows, 4096)) == rows


class TestPredicates:
    def test_comparisons(self):
        row = {"x": 5, "s": "abc"}
        assert (col("x") > 4).matches(row)
        assert not (col("x") > 5).matches(row)
        assert (col("s") == "abc").matches(row)
        assert not (col("s") == "abd").matches(row)

    def test_boolean_combinators(self):
        row = {"x": 5, "y": 10}
        p = (col("x") > 4) & (col("y") == 10)
        assert p.matches(row)
        q = (col("x") > 100) & (col("y") == 10)
        assert not q.matches(row)


class TestFilterEngine:
    def test_engine_filters_and_projects(self):
        sim = Simulator()
        schema = Schema([("id", "int64"), ("v", "int64"), ("tag", "str4")])
        engine = FilterEngine(sim, schema, col("v") > 49,
                              project=["id"])
        rows = [{"id": i, "v": i * 10, "tag": "t"} for i in range(10)]
        page = schema.pack_page(rows, 2048)

        def proc(sim):
            out = yield sim.process(engine.run_page(page))
            return out

        out = sim.run_process(proc(sim))
        assert out == [{"id": i} for i in range(5, 10)]

    def test_result_bytes_respects_projection(self):
        sim = Simulator()
        schema = Schema([("id", "int64"), ("pad", "str8")])
        full = FilterEngine(sim, schema, col("id") > -1)
        proj = FilterEngine(sim, schema, col("id") > -1, project=["id"])
        rows = [{"id": 1, "pad": "x"}]
        assert full.result_bytes(rows) == 16
        assert proj.result_bytes(rows) == 8

    def test_unknown_projection_rejected(self):
        sim = Simulator()
        schema = Schema([("id", "int64")])
        with pytest.raises(KeyError):
            FilterEngine(sim, schema, col("id") > 0, project=["ghost"])


class TestTableScan:
    def _setup(self, n_rows=600):
        sim = Simulator()
        node = BlueDBMNode(sim, geometry=GEO, isp_queue_depth=4)
        schema, rows = make_orders_table(n_rows, seed=3)
        table = FlashTable(node, "orders", schema)
        sim.run_process(table.load(rows))
        return sim, table, rows

    def test_offloaded_matches_oracle(self):
        sim, table, rows = self._setup()
        predicate = (col("amount") > 5000) & (col("region") == "west")
        oracle = sorted((r for r in rows if r["amount"] > 5000
                         and r["region"] == "west"),
                        key=lambda r: r["order_id"])
        scan = TableScan(table, n_engines=4)

        def proc(sim):
            return (yield from scan.offloaded(predicate))

        result, stats = sim.run_process(proc(sim))
        assert result == oracle
        assert stats["rows_returned"] == len(oracle)

    def test_host_scan_matches_oracle(self):
        sim, table, rows = self._setup()
        predicate = col("status") == "returned"
        oracle = sorted((r for r in rows if r["status"] == "returned"),
                        key=lambda r: r["order_id"])
        scan = TableScan(table)

        def proc(sim):
            return (yield from scan.host_scan(predicate))

        result, stats = sim.run_process(proc(sim))
        assert result == oracle

    def test_both_paths_agree_with_projection(self):
        sim, table, rows = self._setup()
        predicate = col("customer") > 899
        scan = TableScan(table, n_engines=4)

        def offl(sim):
            return (yield from scan.offloaded(predicate,
                                              project=["order_id"]))

        result_a, _ = sim.run_process(offl(sim))

        sim2, table2, _ = self._setup()
        scan2 = TableScan(table2)

        def host(sim2):
            return (yield from scan2.host_scan(predicate,
                                               project=["order_id"]))

        result_b, _ = sim2.run_process(host(sim2))
        assert result_a == result_b
        assert result_a  # non-empty for this predicate/seed

    def test_offload_ships_less_data_when_selective(self):
        sim, table, rows = self._setup()
        selective = col("amount") > 9900  # ~1% selectivity
        scan = TableScan(table, n_engines=4)

        def offl(sim):
            return (yield from scan.offloaded(selective))

        _, stats_offl = sim.run_process(offl(sim))

        sim2, table2, _ = self._setup()
        scan2 = TableScan(table2)

        def host(sim2):
            return (yield from scan2.host_scan(selective))

        _, stats_host = sim2.run_process(host(sim2))
        # The offloaded path ships orders of magnitude fewer bytes.
        assert (stats_offl["result_wire_bytes"]
                < stats_host["result_wire_bytes"] / 20)

    def test_empty_result(self):
        sim, table, rows = self._setup(100)
        scan = TableScan(table, n_engines=2)

        def proc(sim):
            return (yield from scan.offloaded(col("amount") > 10_000_000))

        result, stats = sim.run_process(proc(sim))
        assert result == []
        assert stats["rows_returned"] == 0

    def test_orders_generator_validates(self):
        with pytest.raises(ValueError):
            make_orders_table(0)
