"""The state rule: ``src/repro`` keeps a collector only if something reads it.

A histogram, bandwidth ledger or utilization tracker that is written
on every request and never read costs time and memory for nothing.
This test parses every source file, finds each
``self.<name> = LatencyHistogram(...)`` (or ``BandwidthLedger``,
``UtilizationTracker`` from :mod:`repro.sim`), and fails unless some
file under ``src/repro`` loads ``.<name>`` other than to call
``.add``/``.record``/``.busy`` on it or to store into (or delete) one
of its items (``self.<name>[k] = v``, ``self.<name>[k] += n``).  It
names the class, attribute, file and line of each collector nothing
reads.  Plain counters are ints: the attribute rule of
``tests/test_callers.py`` catches one nothing reads.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

COLLECTORS = {"LatencyHistogram", "BandwidthLedger", "UtilizationTracker"}
#: Calls that only feed a collector; a load that just makes one of
#: these calls is a write, not a read.
WRITERS = {"add", "record", "busy"}


def _parse_all():
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(SRC.rglob("*.py"))]


def item_store_receivers(tree):
    """``id`` of every expression whose item is stored into or deleted
    (the ``self.x`` of ``self.x[k] = v``, ``self.x[k] += n`` or
    ``del self.x[k]``): a load of it writes, it does not read."""
    return {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.ctx, (ast.Store, ast.Del))}


def _sim_collector_names(tree):
    """Local names bound to a :mod:`repro.sim` collector class."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level
                and (node.module or "").split(".")[-1] in {"sim", "stats"}):
            names.update(alias.asname or alias.name for alias in node.names
                         if alias.name in COLLECTORS)
    return names


def collector_sites(parsed):
    """``(class, attribute, relative path, line)`` of every
    ``self.<attr> = <collector>(...)`` under ``src/repro``."""
    sites = []
    for path, tree in parsed:
        names = _sim_collector_names(tree)
        if not names:
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                else:
                    continue
                call = node.value
                if not (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id in names):
                    continue
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        sites.append((cls.name, target.attr,
                                      path.relative_to(SRC).as_posix(),
                                      node.lineno))
    return sites


def read_attributes(parsed):
    """Every attribute name loaded under ``src/repro`` other than as
    the receiver of an ``.add``/``.record``/``.busy`` call or of an
    item store."""
    reads = set()
    for _, tree in parsed:
        writes = item_store_receivers(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in WRITERS
                    and isinstance(node.func.value, ast.Attribute)):
                writes.add(id(node.func.value))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in writes):
                reads.add(node.attr)
    return reads


def test_every_collector_has_a_reader():
    parsed = _parse_all()
    sites = collector_sites(parsed)
    reads = read_attributes(parsed)
    unread = [f"src/repro/{path}:{line}: {cls}.{attr}"
              for cls, attr, path, line in sites if attr not in reads]
    assert not unread, (
        "collector written but never read; delete it or read it:\n"
        + "\n".join(unread))


def test_the_scan_sees_the_collectors_it_guards():
    # A parser that silently matched nothing would pass vacuously.
    found = {(cls, attr) for cls, attr, _, _ in collector_sites(_parse_all())}
    assert {("FlashSplitter", "bandwidth"), ("HostCPU", "tracker"),
            ("SoftwareGrep", "page_latency")} <= found


#: A module with one collector of each kind the rule judges.
SYNTHETIC = """\
from ..sim import BandwidthLedger, LatencyHistogram, UtilizationTracker


class ZzStage:
    def __init__(self):
        self.zz_read = LatencyHistogram()
        self.zz_fed_only = LatencyHistogram()
        self.zz_stored_only = BandwidthLedger()
        self.zz_deleted_only = UtilizationTracker()

    def observe(self, key, ns):
        self.zz_read.record(ns)
        self.zz_fed_only.record(ns)
        self.zz_stored_only[key] += ns
        del self.zz_deleted_only[key]

    def report(self):
        return self.zz_read.percentile(99)
"""


def test_feeding_or_storing_items_is_not_reading():
    parsed = [(SRC / "zz_synthetic.py", ast.parse(SYNTHETIC))]
    sites = {attr for _, attr, _, _ in collector_sites(parsed)}
    reads = read_attributes(parsed)
    assert sites - reads == {"zz_fed_only", "zz_stored_only",
                             "zz_deleted_only"}
