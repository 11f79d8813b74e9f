"""Sparse matrix-vector multiply accelerator (Section 8 future work).

"Sparse-Matrix Based Linear Algebra Acceleration" built on the BlueDBM
accelerator framework: the matrix lives in flash as page-packed CSR row
chunks; the dense vector is preloaded into the storage device's on-board
DRAM (Figure 2's fourth service); the engine streams matrix pages at
flash speed and emits only the dense partial results — the same
move-compute-to-data shape as the paper's other accelerators, and SpMV
is the canonical memory-bandwidth-bound kernel that benefits.

The codec and engine are functionally real: pages round-trip exact
float64 values and the engine's output matches ``A @ x`` to numerical
precision.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..core.accel import Engine
from ..sim import Simulator

__all__ = ["encode_rows", "decode_rows", "pack_csr_pages", "SpMVEngine"]

_HEADER = struct.Struct("<I")          # number of rows in the page
_ROW_HEADER = struct.Struct("<QI")     # row index, number of entries
_ENTRY = struct.Struct("<Qd")          # column index, float64 value

Row = Tuple[int, Sequence[Tuple[int, float]]]


def encode_rows(rows: Sequence[Row], page_size: int) -> bytes:
    """Pack CSR rows (row_id, [(col, value), ...]) into one page."""
    blob = bytearray(_HEADER.pack(len(rows)))
    for row_id, entries in rows:
        if row_id < 0:
            raise ValueError("negative row index")
        blob += _ROW_HEADER.pack(row_id, len(entries))
        for column, value in entries:
            if column < 0:
                raise ValueError("negative column index")
            blob += _ENTRY.pack(column, value)
    if len(blob) > page_size:
        raise ValueError(
            f"rows need {len(blob)} bytes; page is {page_size}")
    return bytes(blob)


def decode_rows(data: bytes) -> List[Row]:
    """Inverse of :func:`encode_rows`."""
    (n_rows,) = _HEADER.unpack_from(data, 0)
    offset = _HEADER.size
    rows: List[Row] = []
    for _ in range(n_rows):
        row_id, n_entries = _ROW_HEADER.unpack_from(data, offset)
        offset += _ROW_HEADER.size
        entries = []
        for _ in range(n_entries):
            column, value = _ENTRY.unpack_from(data, offset)
            offset += _ENTRY.size
            entries.append((column, value))
        rows.append((row_id, entries))
    return rows


def pack_csr_pages(matrix, page_size: int) -> List[bytes]:
    """Split a scipy-style sparse matrix (or dense array) into pages.

    Rows are packed greedily; a row must fit one page (true for any
    realistic page size and row density).
    """
    dense = np.asarray(matrix.todense() if hasattr(matrix, "todense")
                       else matrix, dtype=np.float64)
    pages: List[bytes] = []
    current: List[Row] = []
    current_bytes = _HEADER.size
    for row_id in range(dense.shape[0]):
        cols = np.nonzero(dense[row_id])[0]
        entries = [(int(c), float(dense[row_id, c])) for c in cols]
        row_bytes = _ROW_HEADER.size + len(entries) * _ENTRY.size
        if row_bytes + _HEADER.size > page_size:
            raise ValueError(f"row {row_id} does not fit one page")
        if current_bytes + row_bytes > page_size:
            pages.append(encode_rows(current, page_size))
            current, current_bytes = [], _HEADER.size
        current.append((row_id, entries))
        current_bytes += row_bytes
    if current:
        pages.append(encode_rows(current, page_size))
    return pages


class SpMVEngine(Engine):
    """Streams CSR pages and accumulates y[row] += A[row,:] . x."""

    def __init__(self, sim: Simulator, x: np.ndarray,
                 bytes_per_ns: float = 0.4, name: str = "spmv-engine"):
        super().__init__(sim, bytes_per_ns, name=name)
        self.x = np.asarray(x, dtype=np.float64)

    def process_page(self, data: bytes, context=None) -> Dict[int, float]:
        partial: Dict[int, float] = {}
        for row_id, entries in decode_rows(data):
            acc = 0.0
            for column, value in entries:
                acc += value * self.x[column]
            if entries:
                partial[row_id] = acc
        return partial
