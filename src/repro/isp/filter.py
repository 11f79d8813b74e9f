"""In-store SQL filter engine: selection + projection offload.

Section 8 lists "SQL Database Acceleration by offloading query
processing and filtering to in-store processors" as the system's next
application; the related-work systems it cites (Ibex, IBM/Netezza) do
exactly this — evaluate relational selection near storage and ship only
matching rows.  This module implements that engine on the BlueDBM
accelerator framework:

* a fixed-width row codec (:class:`Schema`) that packs rows into flash
  pages;
* a small predicate language (:class:`Predicate` trees over column
  comparisons, with AND/OR/NOT) evaluated *for real* against row bytes;
* :class:`FilterEngine`, which scans pages at stream rate and returns
  only the selected, projected rows — the property that makes offload
  pay: result traffic shrinks with selectivity while a host scan always
  moves every page over PCIe.
"""

from __future__ import annotations

import operator
import struct
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.accel import Engine
from ..sim import Simulator

__all__ = ["Column", "Schema", "Predicate", "col", "FilterEngine"]

_INT = "int64"
_STR_PREFIX = "str"


class Column:
    """One fixed-width column: ``int64`` or ``strN`` (N-byte text)."""

    __slots__ = ("name", "kind", "width")

    def __init__(self, name: str, kind: str):
        if not name:
            raise ValueError("empty column name")
        if kind == _INT:
            width = 8
        elif kind.startswith(_STR_PREFIX):
            try:
                width = int(kind[len(_STR_PREFIX):])
            except ValueError:
                raise ValueError(f"bad column kind {kind!r}") from None
            if width < 1:
                raise ValueError(f"bad string width in {kind!r}")
        else:
            raise ValueError(f"unknown column kind {kind!r}")
        self.name = name
        self.kind = kind
        self.width = width

    def pack(self, value: Any) -> bytes:
        if self.kind == _INT:
            return struct.pack("<q", value)
        data = value.encode() if isinstance(value, str) else bytes(value)
        if len(data) > self.width:
            raise ValueError(
                f"value too wide for {self.name} ({len(data)} > "
                f"{self.width})")
        return data.ljust(self.width, b"\x00")

    def unpack(self, blob: bytes) -> Any:
        if self.kind == _INT:
            return struct.unpack("<q", blob)[0]
        return blob.rstrip(b"\x00").decode()


class Schema:
    """An ordered set of columns; rows pack to a fixed width."""

    def __init__(self, columns: Sequence[Tuple[str, str]]):
        if not columns:
            raise ValueError("schema needs at least one column")
        self.columns = [Column(name, kind) for name, kind in columns]
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names")
        self.row_width = sum(c.width for c in self.columns)
        self._index = {c.name: i for i, c in enumerate(self.columns)}
        self._offsets = []
        offset = 0
        for column in self.columns:
            self._offsets.append(offset)
            offset += column.width

    def column(self, name: str) -> Column:
        if name not in self._index:
            raise KeyError(f"no column {name!r}")
        return self.columns[self._index[name]]

    def pack_row(self, row: Dict[str, Any]) -> bytes:
        return b"".join(c.pack(row[c.name]) for c in self.columns)

    def unpack_row(self, blob: bytes) -> Dict[str, Any]:
        if len(blob) != self.row_width:
            raise ValueError("row blob has wrong width")
        out = {}
        for column, offset in zip(self.columns, self._offsets):
            out[column.name] = column.unpack(
                blob[offset:offset + column.width])
        return out

    def rows_per_page(self, page_size: int) -> int:
        per = page_size // self.row_width
        if per < 1:
            raise ValueError("row wider than a page")
        return per

    def pack_page(self, rows: Sequence[Dict[str, Any]],
                  page_size: int) -> bytes:
        if len(rows) > self.rows_per_page(page_size):
            raise ValueError("too many rows for one page")
        # Page header: row count (so partial pages scan correctly).
        blob = struct.pack("<I", len(rows))
        blob += b"".join(self.pack_row(r) for r in rows)
        return blob

    def unpack_page(self, data: bytes) -> List[Dict[str, Any]]:
        (count,) = struct.unpack_from("<I", data, 0)
        rows = []
        offset = 4
        for _ in range(count):
            rows.append(self.unpack_row(
                data[offset:offset + self.row_width]))
            offset += self.row_width
        return rows


_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Predicate:
    """A boolean expression tree over row values."""

    def __init__(self, kind: str, payload):
        self.kind = kind
        self.payload = payload

    # -- combinators -----------------------------------------------------
    def __and__(self, other: "Predicate") -> "Predicate":
        return Predicate("and", (self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Predicate("or", (self, other))

    def __invert__(self) -> "Predicate":
        return Predicate("not", self)

    # -- evaluation --------------------------------------------------------
    def matches(self, row: Dict[str, Any]) -> bool:
        if self.kind == "cmp":
            name, op, value = self.payload
            return _OPS[op](row[name], value)
        if self.kind == "and":
            left, right = self.payload
            return left.matches(row) and right.matches(row)
        if self.kind == "or":
            left, right = self.payload
            return left.matches(row) or right.matches(row)
        if self.kind == "not":
            return not self.payload.matches(row)
        raise ValueError(f"unknown predicate kind {self.kind!r}")


class _ColumnRef:
    """Builder: ``col("price") > 100`` makes a comparison predicate."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def _cmp(self, op: str, value) -> Predicate:
        return Predicate("cmp", (self.name, op, value))

    def __eq__(self, value):  # type: ignore[override]
        return self._cmp("=", value)

    def __ne__(self, value):  # type: ignore[override]
        return self._cmp("!=", value)

    def __lt__(self, value):
        return self._cmp("<", value)

    def __le__(self, value):
        return self._cmp("<=", value)

    def __gt__(self, value):
        return self._cmp(">", value)

    def __ge__(self, value):
        return self._cmp(">=", value)


def col(name: str) -> _ColumnRef:
    """Reference a column in a predicate expression."""
    return _ColumnRef(name)


class FilterEngine(Engine):
    """Selection + projection at storage stream rate.

    ``process_page`` really decodes rows, evaluates the predicate, and
    returns only the projected columns of matching rows — the engine's
    output is what crosses the network/PCIe, not the page.
    """

    def __init__(self, sim: Simulator, schema: Schema,
                 predicate: Predicate,
                 project: Optional[Sequence[str]] = None,
                 bytes_per_ns: float = 0.4, name: str = "filter-engine"):
        super().__init__(sim, bytes_per_ns, name=name)
        self.schema = schema
        self.predicate = predicate
        self.project = list(project) if project is not None else None
        for column in self.project or []:
            schema.column(column)  # validate early

    def process_page(self, data: bytes, context=None) -> List[Dict]:
        selected = []
        for row in self.schema.unpack_page(data):
            if self.predicate.matches(row):
                if self.project is not None:
                    row = {k: row[k] for k in self.project}
                selected.append(row)
        return selected

    def result_bytes(self, rows: List[Dict]) -> int:
        """Wire size of a result batch (what gets shipped upstream)."""
        if self.project is None:
            width = self.schema.row_width
        else:
            width = sum(self.schema.column(c).width for c in self.project)
        return len(rows) * width
