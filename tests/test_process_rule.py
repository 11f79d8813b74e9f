"""The process rule: ``src/repro`` spawns a ``Process`` only where
concurrency is real.

``yield sim.process(gen)`` -- spawn a process and wait for it at once --
means the same as ``yield from gen`` but costs a ``Process`` object, a
bootstrap event, a completion event and a second generator frame.  A
sequential sub-step is therefore run with ``yield from``; a process is
kept for fan-out joined later, an independent lifetime, or
fire-and-forget issue, none of which yields the ``process(...)`` call
directly.  This test parses every source file and fails on any
``yield <x>.process(...)``, naming the file and line.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: The only spawn-and-wait sites allowed: ``FlashCard``'s three chip
#: operations.  Their extra scheduling step decides same-instant chip
#: arbitration (and so which program an injected fault hits), so
#: flattening them changes results; see ``flash/controller.py``.
ALLOWED = {
    ("flash/controller.py", "chip.read(addr)"),
    ("flash/controller.py", "chip.program(addr, data)"),
    ("flash/controller.py", "chip.erase(addr)"),
}


def spawn_and_wait_sites():
    """``(relative path, line, argument source)`` of every ``yield``
    whose value is a ``<x>.process(...)`` call under ``src/repro``."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source, filename=str(path))):
            if not isinstance(node, ast.Yield):
                continue
            call = node.value
            if (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "process"):
                arg = (ast.get_source_segment(source, call.args[0])
                       if call.args else "")
                sites.append((path.relative_to(SRC).as_posix(),
                              node.lineno, arg))
    return sites


def test_no_spawn_and_wait_outside_the_chip_operations():
    sites = spawn_and_wait_sites()
    offending = [f"src/repro/{path}:{line}: yield ....process({arg})"
                 for path, line, arg in sites if (path, arg) not in ALLOWED]
    assert not offending, (
        "spawn-and-wait found; run the sequential sub-step with "
        "`yield from gen` instead:\n" + "\n".join(offending))
    # A stale entry would let a new site with the same text slip by.
    assert ALLOWED == {(path, arg) for path, _, arg in sites}
