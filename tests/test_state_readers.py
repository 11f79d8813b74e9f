"""The state rule: ``src/repro`` keeps a collector only if something reads it.

A counter, histogram, bandwidth ledger or utilization tracker that is
written on every request and never read costs time and memory for
nothing.  This test parses every source file, finds each
``self.<name> = Counter(...)`` (or ``LatencyHistogram``,
``BandwidthLedger``, ``UtilizationTracker`` from :mod:`repro.sim`), and
fails unless some file under ``src/repro`` loads ``.<name>`` other than
to call ``.add``/``.record``/``.busy`` on it.  It names the class,
attribute, file and line of each collector nothing reads.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

COLLECTORS = {"Counter", "LatencyHistogram", "BandwidthLedger",
              "UtilizationTracker"}
#: Calls that only feed a collector; a load that just makes one of
#: these calls is a write, not a read.
WRITERS = {"add", "record", "busy"}


def _parse_all():
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(SRC.rglob("*.py"))]


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
    the receiver of an ``.add``/``.record``/``.busy`` call."""
    reads = set()
    for _, tree in parsed:
        writes = set()
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
    assert {("FlashCard", "reads"), ("FlashSplitter", "bandwidth"),
            ("HostCPU", "tracker"), ("Endpoint", "sent_bytes")} <= found
