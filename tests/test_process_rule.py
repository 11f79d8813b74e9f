"""The process rule: ``src/repro`` spawns a ``Process`` only where
concurrency is real.

``yield sim.process(gen)`` -- spawn a process and wait for it at once --
means the same as ``yield from gen`` but costs a ``Process`` object, a
bootstrap event, a completion event and a second generator frame.  A
sequential sub-step is therefore run with ``yield from``; a process is
kept for fan-out joined later, an independent lifetime, or
fire-and-forget issue, none of which yields the ``process(...)`` call
directly.  This test parses every source file and fails on any
``yield <x>.process(...)``, naming the file and line; no site is
exempt.  (The flash card's chip operations, once exempt, run inline:
two zero-delay turns stand where the process's bootstrap and
completion were, so same-instant chip arbitration is unchanged.)

The timer rule: a step nobody waits on is a timer callback.  A spawned
generator whose only waits are one ``timeout(...)`` and at most one
``.put(...)`` is "after d ns, do X" -- ``sim.timeout(d)`` with X
appended to its callbacks does the same with one event and no
``Process``.  The second test fails on every ``<x>.process(gen(...))``
whose generator has that shape, naming the spawn's file and line.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Spawn-and-wait sites allowed, as ``(relative path, argument
#: source)``: none.
ALLOWED: set = set()


def _parsed_sources():
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        yield path, source, ast.parse(source, filename=str(path))


def spawn_and_wait_sites():
    """``(relative path, line, argument source)`` of every ``yield``
    whose value is a ``<x>.process(...)`` call under ``src/repro``."""
    sites = []
    for path, source, tree in _parsed_sources():
        for node in ast.walk(tree):
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


def test_no_spawn_and_wait():
    sites = spawn_and_wait_sites()
    offending = [f"src/repro/{path}:{line}: yield ....process({arg})"
                 for path, line, arg in sites if (path, arg) not in ALLOWED]
    assert not offending, (
        "spawn-and-wait found; run the sequential sub-step with "
        "`yield from gen` instead:\n" + "\n".join(offending))
    # A stale entry would let a new site with the same text slip by.
    assert ALLOWED == {(path, arg) for path, _, arg in sites}


def _own_nodes(function):
    """The nodes of ``function``'s body, not of functions nested in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda, ast.ClassDef)):
                stack.append(child)


def _called_attr(node):
    """``name`` for a ``<x>.name(...)`` call, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def is_timer_shaped(function) -> bool:
    """True if ``function`` is a generator whose only waits are one
    ``timeout(...)`` and at most one ``.put(...)``."""
    kinds = [_called_attr(node.value) for node in _own_nodes(function)
             if isinstance(node, (ast.Yield, ast.YieldFrom))]
    timeouts, puts = kinds.count("timeout"), kinds.count("put")
    return timeouts == 1 and puts <= 1 and timeouts + puts == len(kinds)


def timer_shaped_spawn_sites():
    """``(relative path, line, generator name)`` of every
    ``<x>.process(gen(...))`` under ``src/repro`` whose ``gen`` -- any
    function of that name in ``src/repro`` -- is timer-shaped."""
    trees = list(_parsed_sources())
    timer_shaped = {
        node.name for _, _, tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and is_timer_shaped(node)}
    sites = []
    for path, _, tree in trees:
        for node in ast.walk(tree):
            if _called_attr(node) != "process" or not node.args:
                continue
            spawned = node.args[0]
            if not isinstance(spawned, ast.Call):
                continue
            func = spawned.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name in timer_shaped:
                sites.append((path.relative_to(SRC).as_posix(),
                              node.lineno, name))
    return sites


def test_timer_shaped_generators_are_not_processes():
    offending = [f"src/repro/{path}:{line}: .process({name}(...))"
                 for path, line, name in timer_shaped_spawn_sites()]
    assert not offending, (
        "a spawned generator only waits out a delay (and maybe one put); "
        "arm `sim.timeout(d)` and append the step to its callbacks "
        "instead:\n" + "\n".join(offending))


def test_timer_shape_recognizes_delay_then_put_only():
    def shape(source):
        return is_timer_shaped(ast.parse(source).body[0])

    assert shape("def f(self, p):\n"
                 "    yield self.sim.timeout(5)\n"
                 "    yield self.buf.put(p)\n")
    assert shape("def f(self):\n"
                 "    yield self.sim.timeout(5)\n"
                 "    self.pool.give(1)\n")
    # Two delays, a get, a `yield from` or no wait at all is real work.
    assert not shape("def f(self):\n"
                     "    yield self.sim.timeout(5)\n"
                     "    yield self.sim.timeout(5)\n")
    assert not shape("def f(self):\n"
                     "    item = yield self.buf.get()\n"
                     "    yield self.sim.timeout(item)\n")
    assert not shape("def f(self):\n"
                     "    yield self.sim.timeout(5)\n"
                     "    yield from self.step()\n")
    assert not shape("def f(self):\n"
                     "    return 1\n")
