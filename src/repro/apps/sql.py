"""SQL-style table scans: in-store filtering vs host scan.

The Section 8 extension built out: a table lives in flash through the
file system; a query is a predicate + projection.  Two execution paths:

* **offloaded** — the host ships the predicate to in-store
  :class:`~repro.isp.filter.FilterEngine` banks; pages stream from flash
  into the engines, and only selected/projected rows cross PCIe.  Result
  traffic scales with *selectivity*, not table size.
* **host scan** — every page crosses PCIe and the host CPU evaluates the
  predicate (a per-row software cost), the classic row-store scan.

Both paths return the same oracle-verified rows.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.node import BlueDBMNode
from ..isp.filter import FilterEngine, Predicate, Schema
from ..sim import Store, units

__all__ = ["FlashTable", "TableScan", "make_orders_table"]

#: Host cost to decode + evaluate one row in software (tight C loop).
HOST_NS_PER_ROW = 150


def make_orders_table(n_rows: int, seed: int = 0
                      ) -> Tuple[Schema, List[Dict[str, Any]]]:
    """A synthetic orders table (the kind of scan the intro motivates)."""
    if n_rows < 1:
        raise ValueError("need at least one row")
    schema = Schema([
        ("order_id", "int64"),
        ("customer", "int64"),
        ("amount", "int64"),
        ("region", "str8"),
        ("status", "str8"),
    ])
    rng = random.Random(seed)
    regions = ["north", "south", "east", "west"]
    statuses = ["open", "shipped", "returned"]
    rows = [{
        "order_id": i,
        "customer": rng.randrange(1000),
        "amount": rng.randrange(1, 10_000),
        "region": regions[rng.randrange(4)],
        "status": statuses[rng.randrange(3)],
    } for i in range(n_rows)]
    return schema, rows


class FlashTable:
    """A row table stored page-packed through the node's file system."""

    def __init__(self, node: BlueDBMNode, name: str, schema: Schema):
        self.node = node
        self.sim = node.sim
        self.name = name
        self.schema = schema
        self.n_rows = 0

    def load(self, rows: Sequence[Dict[str, Any]]):
        """Write rows into flash via RFS (DES generator)."""
        page_size = self.node.geometry.page_size
        per_page = self.schema.rows_per_page(page_size - 4)
        pages = []
        for start in range(0, len(rows), per_page):
            pages.append(self.schema.pack_page(
                rows[start:start + per_page], page_size - 4))
        blob = b"".join(page.ljust(page_size, b"\x00") for page in pages)
        yield from self.node.fs.write_file(self.name, blob)
        self.n_rows = len(rows)

    @property
    def n_pages(self) -> int:
        return self.node.fs.stat(self.name).num_pages


class TableScan:
    """Executes predicate scans over a :class:`FlashTable`."""

    #: Each filter engine's stream rate.
    ENGINE_BYTES_PER_NS = 0.4
    #: Host-scan reads kept in flight (async I/O).
    HOST_OUTSTANDING = 64

    def __init__(self, table: FlashTable, n_engines: int = 8):
        self.table = table
        self.sim = table.sim
        self.n_engines = n_engines

    # -- offloaded path ----------------------------------------------------
    def offloaded(self, predicate: Predicate,
                  project: Optional[Sequence[str]] = None):
        """(DES generator) -> (rows, stats dict).

        Software ships the predicate, streams physical addresses; engine
        banks filter at flash speed; only results return over PCIe.
        """
        node = self.table.node
        # Ship the compiled predicate + projection list to the engines.
        yield from node.cpu.compute(node.host_config.software_request_ns)
        yield from node.pcie.host_to_device(256)
        extents = node.fs.physical_extents(self.table.name)
        handle = node.flash_server.register_file(
            f"{self.table.name}-scan", extents)

        engines = [FilterEngine(self.sim, self.table.schema, predicate,
                                project, self.ENGINE_BYTES_PER_NS,
                                name=f"filter-{i}")
                   for i in range(self.n_engines)]
        t0 = self.sim.now
        results: List[Dict] = []
        result_bytes = [0]
        procs = []
        per = max(1, -(-len(extents) // self.n_engines))

        def segment(k: int, engine: FilterEngine):
            lo, hi = k * per, min(len(extents), (k + 1) * per)
            if lo >= hi:
                return
            out = Store(self.sim, capacity=2)
            self.sim.process(node.flash_server.stream_file(
                handle.handle_id, out, offsets=range(lo, hi)))
            for _ in range(hi - lo):
                page = yield out.get()
                rows = yield from engine.run_page(page, None)
                if rows:
                    result_bytes[0] += engine.result_bytes(rows)
                    results.extend(rows)

        for k, engine in enumerate(engines):
            procs.append(self.sim.process(segment(k, engine)))
        for proc in procs:
            yield proc
        # Ship the (small) result set up to the host.
        yield from node.pcie.device_to_host(max(1, result_bytes[0]))
        elapsed = self.sim.now - t0
        stats = self._stats(elapsed, result_bytes[0], len(results))
        return self._ordered(results, project), stats

    # -- host scan path ---------------------------------------------------------
    def host_scan(self, predicate: Predicate,
                  project: Optional[Sequence[str]] = None):
        """(DES generator) -> (rows, stats dict).

        Every page crosses PCIe; the host CPU decodes and filters.
        Reads are pipelined (async I/O) so the path is bandwidth-bound,
        the fairest software comparison.
        """
        node = self.table.node
        schema = self.table.schema
        extents = node.fs.physical_extents(self.table.name)
        t0 = self.sim.now
        results: List[Dict] = []

        def one(addr):
            data = yield from node.host_read(addr, software_path=False)
            rows = schema.unpack_page(data)
            yield from node.cpu.compute(HOST_NS_PER_ROW * max(1, len(rows)))
            for row in rows:
                if predicate.matches(row):
                    if project is not None:
                        row = {k: row[k] for k in project}
                    results.append(row)

        yield from self.sim.pipeline(
            (one(addr) for addr in extents), self.HOST_OUTSTANDING)
        elapsed = self.sim.now - t0
        page_bytes = len(extents) * node.geometry.page_size
        stats = self._stats(elapsed, page_bytes, len(results))
        return self._ordered(results, project), stats

    # -- helpers -------------------------------------------------------------
    def _stats(self, elapsed_ns: int, wire_bytes: int,
               n_rows: int) -> Dict[str, float]:
        scanned = self.table.n_pages * self.table.node.geometry.page_size
        return {
            "elapsed_ns": elapsed_ns,
            "scan_gbs": units.bandwidth_gbytes(scanned, elapsed_ns),
            "result_wire_bytes": wire_bytes,
            "rows_returned": n_rows,
        }

    @staticmethod
    def _ordered(rows: List[Dict], project) -> List[Dict]:
        key_field = None
        if rows:
            key_field = ("order_id" if "order_id" in rows[0]
                         else sorted(rows[0])[0])
        return sorted(rows, key=lambda r: (r[key_field],
                                           tuple(sorted(r.items()))))
