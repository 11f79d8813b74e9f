"""The caller rule: ``src/repro`` keeps a definition only if something
uses it.

A function, method, class or module constant that only tests reach is
code the simulator carries for nothing.  This test parses ``src/repro``,
``bench``, ``benchmarks`` and ``examples`` and fails on every such
definition in ``src/repro`` that nothing there refers to.  The scan is
by name, not by type:

* a reference is a load of the name (``name`` or ``<x>.name``) or a
  string constant spelling it, which covers ``getattr`` dispatch;
* ``__all__`` entries and ``import`` aliases are not references, nor is
  a use inside the definition itself;
* a use inside a definition that is itself unreferenced does not count
  either, and whatever is nested in one goes with it, so the scan
  repeats until nothing more drops out;
* test files (``test_*.py``, ``conftest.py`` and anything under a
  ``tests`` directory) are not parsed at all.

Dunders, ``@experiment``-registered entry points and the short
:data:`ALLOWED` list are exempt.  Each failure names the file, line and
qualified name of the definition.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SCANNED = [SRC, ROOT / "bench", ROOT / "benchmarks", ROOT / "examples"]

#: Definitions kept without a caller, one reason each.
ALLOWED = {
    # Kernel API: the all-of join next to ``any_of``; the DES kernel
    # offers both waits whether or not a model needs the second today.
    "sim/core.py:Simulator.all_of",
    # The hook a fault-interleaved FTL fuzzer drives to force GC at
    # chosen instants (ROADMAP open item).
    "ftl/core.py:FtlCore.force_gc",
    # ``tuple._replace`` looks ``_make`` up on the subclass at run time.
    "flash/geometry.py:PhysAddr._make",
}


def _is_test(path: pathlib.Path) -> bool:
    return (path.name.startswith("test_") or path.name == "conftest.py"
            or "tests" in path.parts)


def _parse_all(extra=()):
    """``(relative name, tree, is_src)`` for every scanned file, plus
    ``extra`` ``(name, source)`` pairs parsed as ``src/repro`` modules."""
    parsed = []
    for top in SCANNED:
        for path in sorted(top.rglob("*.py")):
            if _is_test(path.relative_to(ROOT)):
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            name = path.relative_to(SRC if top == SRC else ROOT)
            parsed.append((name.as_posix(), tree, top == SRC))
    for name, source in extra:
        parsed.append((name, ast.parse(source, filename=name), True))
    return parsed


def _is_experiment(node) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "experiment":
            return True
    return False


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Scan(ast.NodeVisitor):
    """Collects the definitions of one module and every name reference
    in it, each reference tagged with the definitions enclosing it."""

    def __init__(self, module: str, is_src: bool):
        self.module = module
        self.is_src = is_src
        self.stack = []         # enclosing definition keys
        self.defs = {}          # key -> (line, exempt)
        self.refs = []          # (name, enclosing keys)

    def _define(self, name: str, line: int, exempt: bool) -> str:
        scope = self.stack[-1].split(":", 1)[1] + "." if self.stack else ""
        key = f"{self.module}:{scope}{name}"
        if self.is_src:
            # Same-named definitions in one scope (a property's getter
            # and setter) are one definition.
            line0, exempt0 = self.defs.get(key, (line, False))
            self.defs[key] = (line0, exempt0 or exempt or _is_dunder(name))
        return key

    def _enter(self, node, key):
        # Decorators, defaults and bases count as part of the
        # definition: a base class only a dead subclass names is dead.
        self.stack.append(key)
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node):
        self._enter(node, self._define(node.name, node.lineno,
                                       _is_experiment(node)))

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        self._enter(node, self._define(node.name, node.lineno, False))

    def visit_Assign(self, node):
        targets = node.targets
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets):
            return                      # ``__all__`` entries: not uses
        if not self.stack:
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        self._define(leaf.id, node.lineno, False)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if not self.stack and isinstance(node.target, ast.Name):
            self._define(node.target.id, node.lineno, False)
        self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.refs.append((node.id, tuple(self.stack)))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.refs.append((node.attr, tuple(self.stack)))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.refs.append((node.value, tuple(self.stack)))


def scan(extra=(), allowed=ALLOWED):
    """Return ``(definitions, dead)``: every ``src/repro`` definition
    as ``key -> (line, exempt)``, and the keys of those with no user
    outside ``allowed``.

    A key is ``"<path under src/repro>:<qualified name>"``."""
    defs, refs = {}, {}
    for module, tree, is_src in _parse_all(extra):
        visitor = _Scan(module, is_src)
        visitor.visit(tree)
        defs.update(visitor.defs)
        for name, enclosing in visitor.refs:
            refs.setdefault(name, []).append(enclosing)
    dead = set()
    changed = True
    while changed:
        changed = False
        for key, (_, exempt) in defs.items():
            if key in dead or exempt or key in allowed:
                continue
            module, qualname = key.split(":", 1)
            parents = [f"{module}:{qualname.rsplit('.', i)[0]}"
                       for i in range(1, qualname.count(".") + 1)]
            name = qualname.rsplit(".", 1)[-1]
            used = not any(p in dead for p in parents) and any(
                key not in enclosing and not dead.intersection(enclosing)
                for enclosing in refs.get(name, ()))
            if not used:
                dead.add(key)
                changed = True
    return defs, dead


def test_every_definition_has_a_user():
    defs, dead = scan()
    unused = [f"src/repro/{key.split(':')[0]}:{defs[key][0]}: "
              f"{key.split(':')[1]}"
              for key in sorted(dead, key=lambda k: (k.split(":")[0],
                                                     defs[k][0]))]
    assert not unused, (
        "defined but nothing outside tests uses it; delete it, or "
        "allowlist it with a reason:\n" + "\n".join(unused))


def test_the_scan_sees_the_definitions_it_guards():
    # A parser that matched nothing, or found everything used, would
    # pass vacuously.
    synthetic = ("zz_synthetic.py",
                 "def orphan():\n    return orphan()\n\n"
                 "def helper():\n    return 1\n\n"
                 "def caller_of_helper():\n    return helper()\n")
    defs, dead = scan(extra=[synthetic])
    assert {"sim/core.py:Simulator.run", "ftl/core.py:FtlCore.read",
            "flash/geometry.py:PhysAddr"} <= defs.keys() - dead
    # Recursion is no use; a chain hanging off nothing drops whole.
    assert {"zz_synthetic.py:orphan", "zz_synthetic.py:helper",
            "zz_synthetic.py:caller_of_helper"} <= dead
    # Every allowlist entry still exists and still has no other user,
    # so a stale entry fails here.
    assert ALLOWED <= defs.keys()
    for key in ALLOWED:
        _, without = scan(allowed=ALLOWED - {key})
        assert key in without, f"{key} has a user now; drop it from ALLOWED"
