"""Sparse matrix-vector multiply: in-store vs host execution.

The matrix streams from flash; the question is where the multiply
happens.  In-store, only the dense result vector crosses PCIe (8 bytes
per row); on the host, every matrix page does.  Both paths produce
``A @ x`` to float64 precision, checked against the numpy oracle.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.node import BlueDBMNode
from ..isp.spmv import SpMVEngine, decode_rows, pack_csr_pages
from ..sim import Store, units

__all__ = ["SpMVApp", "make_sparse_matrix"]

#: Host cost per nonzero (load, multiply, accumulate — pointer-chasing
#: CSR code is memory-latency bound).
HOST_NS_PER_NNZ = 12


def make_sparse_matrix(n_rows: int, n_cols: int, density: float = 0.05,
                       seed: int = 0) -> np.ndarray:
    """A reproducible random sparse matrix as a dense float64 array."""
    if n_rows < 1 or n_cols < 1:
        raise ValueError("matrix must be non-empty")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    rng = np.random.default_rng(seed)
    matrix = rng.random((n_rows, n_cols))
    mask = rng.random((n_rows, n_cols)) < density
    return np.where(mask, matrix, 0.0)


class SpMVApp:
    """y = A @ x with A resident in one node's flash."""

    #: Each SpMV engine's stream rate.
    ENGINE_BYTES_PER_NS = 0.4

    def __init__(self, node: BlueDBMNode, n_engines: int = 8):
        self.node = node
        self.sim = node.sim
        self.n_engines = n_engines
        self.n_rows = 0
        self.nnz = 0

    def load(self, matrix: np.ndarray):
        """Pack the matrix into CSR pages and write via RFS (generator)."""
        page_size = self.node.geometry.page_size
        pages = pack_csr_pages(matrix, page_size)
        blob = b"".join(p.ljust(page_size, b"\x00") for p in pages)
        yield from self.node.fs.write_file("matrix.csr", blob)
        self.n_rows = matrix.shape[0]
        self.nnz = int(np.count_nonzero(matrix))

    def run_isp(self, x: np.ndarray):
        """(DES generator) -> (y, stats): multiply inside storage."""
        node = self.node
        # Ship the dense vector into on-board DRAM once.
        x = np.asarray(x, dtype=np.float64)
        yield from node.pcie.host_to_device(x.nbytes)
        extents = node.fs.physical_extents("matrix.csr")
        handle = node.flash_server.register_file("spmv", extents)
        engines = [SpMVEngine(self.sim, x, self.ENGINE_BYTES_PER_NS,
                              name=f"spmv-{i}")
                   for i in range(self.n_engines)]
        y = np.zeros(self.n_rows)
        t0 = self.sim.now
        procs = []
        per = max(1, -(-len(extents) // self.n_engines))

        def segment(k: int, engine: SpMVEngine):
            lo, hi = k * per, min(len(extents), (k + 1) * per)
            if lo >= hi:
                return
            out = Store(self.sim, capacity=2)
            self.sim.process(node.flash_server.stream_file(
                handle.handle_id, out, offsets=range(lo, hi)))
            for _ in range(hi - lo):
                page = yield out.get()
                partial = yield from engine.run_page(page)
                for row, value in partial.items():
                    y[row] += value

        for k, engine in enumerate(engines):
            procs.append(self.sim.process(segment(k, engine)))
        for proc in procs:
            yield proc
        # Only the dense result crosses PCIe.
        yield from node.pcie.device_to_host(y.nbytes)
        elapsed = self.sim.now - t0
        return y, self._stats(elapsed, len(extents))

    def run_host(self, x: np.ndarray, outstanding: int = 64):
        """(DES generator) -> (y, stats): pages to host, multiply there."""
        node = self.node
        x = np.asarray(x, dtype=np.float64)
        extents = node.fs.physical_extents("matrix.csr")
        y = np.zeros(self.n_rows)
        t0 = self.sim.now

        def one(addr):
            data = yield from node.host_read(addr, software_path=False)
            rows = decode_rows(data)
            nnz = sum(len(entries) for _, entries in rows)
            yield from node.cpu.compute(HOST_NS_PER_NNZ * max(1, nnz))
            for row_id, entries in rows:
                acc = 0.0
                for column, value in entries:
                    acc += value * x[column]
                if entries:
                    y[row_id] += acc

        yield from self.sim.pipeline(
            (one(addr) for addr in extents), outstanding)
        elapsed = self.sim.now - t0
        return y, self._stats(elapsed, len(extents))

    def _stats(self, elapsed_ns: int, n_pages: int) -> Dict[str, float]:
        scanned = n_pages * self.node.geometry.page_size
        return {
            "elapsed_ns": elapsed_ns,
            "stream_gbs": units.bandwidth_gbytes(scanned, elapsed_ns),
            "nnz_per_sec": self.nnz / units.to_s(elapsed_ns)
            if elapsed_ns else 0.0,
        }
