"""The caller rules: ``src/repro`` keeps a definition, an option or an
attribute only if something uses it.

A function, method, class or module constant that only tests reach is
code the simulator carries for nothing; so is a defaulted parameter
whose other values nothing passes, and an attribute nothing reads.
This test parses ``src/repro``, ``bench``, ``benchmarks`` and
``examples`` and applies three rules to ``src/repro``.  Test files
(``test_*.py``, ``conftest.py`` and anything under a ``tests``
directory) are not parsed at all.  Every scan is by name, not by type,
so a definition whose name some live code mentions passes even if
nothing ever runs it; ``benchmarks/golden.py``'s run-reachability
check catches those by running every entry point.

**Definitions.**  A function, method, class or module constant needs a
reference:

* a reference is a load of the name (``name`` or ``<x>.name``) or a
  string constant spelling it, which covers ``getattr`` dispatch;
* ``__all__`` entries and ``import`` aliases are not references, nor is
  a use inside the definition itself;
* a use inside a definition that is itself unreferenced does not count
  either, and whatever is nested in one goes with it, so the scan
  repeats until nothing more drops out.

Dunders, ``@experiment``-registered entry points and the short
:data:`ALLOWED` list are exempt.

**Parameters.**  A defaulted parameter, positional or keyword-only,
needs a call that passes it: by keyword, by position, or through
``*``/``**`` unpacking.  ``name(...)`` and ``<x>.name(...)`` are calls
to every function and method called ``name``; a class name calls its
``__init__`` (inherited by base name if it has none) or, for a
dataclass, passes its fields; ``super().__init__(...)`` calls the
enclosing class's bases.  ``dataclasses.replace`` passes the fields it
names.  A defaulted field of a :data:`SPEC_CLASSES` class is also
passed by a dict literal key, since specs are built from dicts.
Exempt: ``@experiment`` runners (the registry forwards ``**kwargs``),
functions never called by name (``cmd_*`` handlers, pool initializers
and default-bound closures are only passed as values), dunders other
than ``__init__``, the :data:`MACHINE_RECORDS` whose fields are the
modelled hardware's constants, and :data:`PARAMS_ALLOWED`.

**Attributes.**  A ``self.<attr>`` store needs a load of ``<x>.<attr>``
or a string constant spelling it.  A load whose item is stored into or
deleted (``<x>.<attr>[k] = v``, ``<x>.<attr>[k] += n``, ``del
<x>.<attr>[k]``) writes the attribute and does not count, so a dict
or ledger that is only ever filled is caught too.  Exception payloads
are exempt: they are read by whoever catches them, often only a
test.

Each failure names the file, line and qualified name.
"""

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SCANNED = [SRC, ROOT / "bench", ROOT / "benchmarks", ROOT / "examples"]

#: Definitions kept without a caller, one reason each.
ALLOWED = {
    # The hook a fault-interleaved FTL fuzzer drives to force GC at
    # chosen instants (ROADMAP open item).
    "ftl/core.py:FtlCore.force_gc",
    # ``tuple._replace`` looks ``_make`` up on the subclass at run time.
    "flash/geometry.py:PhysAddr._make",
}

#: The declarative scenario specs of ``repro/api/spec.py``.
SPEC_CLASSES = {"TopologySpec", "VolumeSpec", "DistributedVolumeSpec",
                "FaultSpec", "TenantSpec", "WorkloadSpec", "ScenarioSpec"}

#: Machine-description records: each field is a constant of the
#: modelled hardware, not an option of the simulator.
MACHINE_RECORDS = {"FlashGeometry", "FlashTiming", "HostConfig",
                   "NetworkConfig", "ErrorModel", "NodePower"}

#: Defaulted parameters kept though no non-test call passes them, one
#: reason each (at most eight; none today).
PARAMS_ALLOWED: set = set()

#: Builtin exception bases: a class deriving from one (directly or
#: through a ``src/repro`` class) stores its payload for its catcher.
_EXCEPTION_BASES = {"Exception", "BaseException", "ValueError",
                    "RuntimeError", "KeyError", "TypeError"}


def _is_test(path: pathlib.Path) -> bool:
    return (path.name.startswith("test_") or path.name == "conftest.py"
            or "tests" in path.parts)


@functools.lru_cache(maxsize=None)
def _parse_scanned():
    parsed = []
    for top in SCANNED:
        for path in sorted(top.rglob("*.py")):
            if _is_test(path.relative_to(ROOT)):
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            name = path.relative_to(SRC if top == SRC else ROOT)
            parsed.append((name.as_posix(), tree, top == SRC))
    return tuple(parsed)


def _parse_all(extra=()):
    """``(relative name, tree, is_src)`` for every scanned file, plus
    ``extra`` ``(name, source)`` pairs parsed as ``src/repro`` modules."""
    parsed = list(_parse_scanned())
    for name, source in extra:
        if not _is_test(pathlib.PurePosixPath(name)):
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


def _decorator_names(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute):
            yield target.attr
        elif isinstance(target, ast.Name):
            yield target.id


def _base_names(node: ast.ClassDef):
    for base in node.bases:
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr


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


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------
class _Signature:
    """The parameters one call name binds: a function's, an
    ``__init__``'s, or a dataclass's fields."""

    def __init__(self, key, positional, defaulted, exempt):
        self.key = key
        self.positional = positional    # names a positional arg binds
        self.defaulted = defaulted      # name -> line
        self.exempt = exempt
        self.called = False
        self.passed = set()

    def bind(self, call: ast.Call, spec: bool = False):
        self.called = True
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                self.passed.update(self.positional[i:])
                break
            if i < len(self.positional):
                self.passed.add(self.positional[i])
        for keyword in call.keywords:
            if keyword.arg is None:
                # A spec's ``**data`` forwards a dict whose literal keys
                # are the passes.
                if not spec:
                    self.passed.update(self.defaulted)
            else:
                self.passed.add(keyword.arg)


def _function_signature(key, node, bound, exempt):
    args = node.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):],
                     args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    # ``x=x`` binds a closure's free variable; it is not an option.
    defaulted = {a.arg: a.lineno for a, d in pairs
                 if not (isinstance(d, ast.Name) and d.id == a.arg)}
    return _Signature(key, [a.arg for a in positional[bound:]], defaulted,
                      exempt)


def _dataclass_fields(node: ast.ClassDef):
    """``(positional names, {defaulted name: line})`` of a dataclass."""
    positional, defaulted = [], {}
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "field"
                and any(k.arg == "init" for k in value.keywords)):
            continue
        positional.append(stmt.target.id)
        if value is not None:
            defaulted[stmt.target.id] = stmt.lineno
    return positional, defaulted


class _Signatures(ast.NodeVisitor):
    """Collects the signatures ``src/repro`` defines: functions and
    methods by name, constructors by class name."""

    def __init__(self, module, functions, ctors, bases, dataclasses):
        self.module = module
        self.functions = functions      # name -> [_Signature]
        self.ctors = ctors              # class name -> _Signature
        self.bases = bases              # class name -> [base names]
        self.dataclasses = dataclasses  # [_Signature]
        self.scope = []                 # enclosing (is_class, name)

    def _key(self, name):
        return f"{self.module}:" + ".".join(
            [n for _, n in self.scope] + [name])

    def visit_ClassDef(self, node):
        self.bases[node.name] = list(_base_names(node))
        if "dataclass" in _decorator_names(node):
            positional, defaulted = _dataclass_fields(node)
            sig = _Signature(self._key(node.name), positional, defaulted,
                             node.name in MACHINE_RECORDS)
            self.ctors[node.name] = sig
            self.dataclasses.append(sig)
        self.scope.append((True, node.name))
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        in_class = bool(self.scope) and self.scope[-1][0]
        bound = int(in_class
                    and "staticmethod" not in _decorator_names(node))
        exempt = _is_experiment(node) or (
            _is_dunder(node.name) and node.name != "__init__")
        if in_class and node.name == "__init__":
            cls = self.scope[-1][1]
            self.ctors[cls] = _function_signature(
                self._key(node.name), node, bound, cls in MACHINE_RECORDS)
        else:
            self.functions.setdefault(node.name, []).append(
                _function_signature(self._key(node.name), node, bound,
                                    exempt))
        self.scope.append((False, node.name))
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


class _Calls(ast.NodeVisitor):
    """Collects ``(call names, call)`` for every call in one module,
    and the string keys of its dict literals."""

    def __init__(self, bases):
        self.bases = bases
        self.classes = []               # enclosing class names
        self.functions = []             # enclosing function names
        self.calls = []
        self.dict_keys = set()

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super" and self.classes):
            names = self.bases.get(self.classes[-1], [])
        elif (isinstance(func, ast.Name) and func.id == "cls"
              and self.classes):
            names = [self.classes[-1]]      # a classmethod's constructor
        elif isinstance(func, ast.Name):
            names = [func.id]
        elif isinstance(func, ast.Attribute):
            names = [func.attr]
        else:
            names = []
        self.calls.append((names, node))
        self.generic_visit(node)

    def visit_Dict(self, node):
        # A ``to_dict`` serializes fields; it passes none.
        if "to_dict" not in self.functions:
            self.dict_keys.update(
                key.value for key in node.keys
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str))
        self.generic_visit(node)


def _constructor(name, ctors, bases):
    """The signature a call to class ``name`` binds: its own
    ``__init__`` or dataclass fields, else the first base's that has
    one."""
    seen = set()
    todo = [name]
    while todo:
        cls = todo.pop(0)
        if cls in seen:
            continue
        seen.add(cls)
        if cls in ctors:
            return ctors[cls]
        todo.extend(bases.get(cls, ()))
    return None


def scan_params(extra=(), specs=SPEC_CLASSES):
    """Return ``{"<key>(<param>)": line}`` for every defaulted
    ``src/repro`` parameter or dataclass field that no non-test call
    passes.  A key is ``"<path under src/repro>:<qualified name>"``;
    a class's key names its ``__init__`` or, for a dataclass, itself.
    ``specs`` names the classes dict literal keys pass fields to."""
    parsed = _parse_all(extra)
    functions, ctors, bases, dataclasses = {}, {}, {}, []
    for module, tree, is_src in parsed:
        if is_src:
            _Signatures(module, functions, ctors, bases,
                        dataclasses).visit(tree)
    dict_keys = set()
    for _, tree, _ in parsed:
        calls = _Calls(bases)
        calls.visit(tree)
        dict_keys |= calls.dict_keys
        for names, call in calls.calls:
            for name in names:
                if name == "replace":
                    # ``dataclasses.replace(x, field=...)`` passes the
                    # fields it names to whichever dataclass ``x`` is.
                    fields = ast.Call(func=call.func, args=[],
                                      keywords=call.keywords)
                    for sig in dataclasses:
                        sig.bind(fields)
                    continue
                targets = list(functions.get(name, ()))
                ctor = _constructor(name, ctors, bases)
                if ctor is not None:
                    targets.append(ctor)
                for sig in targets:
                    sig.bind(call, sig.key.split(":")[1] in specs)
    unpassed = {}
    for sig in [s for sigs in functions.values() for s in sigs] + list(
            ctors.values()):
        if sig.exempt or not sig.called:
            continue
        spec = sig.key.split(":")[1] in specs
        for param, line in sig.defaulted.items():
            if param not in sig.passed and not (spec and param in dict_keys):
                unpassed[f"{sig.key}({param})"] = line
    return unpassed


# ----------------------------------------------------------------------
# attributes
# ----------------------------------------------------------------------
def _exception_classes(parsed):
    bases = {}
    for _, tree, _ in parsed:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = list(_base_names(node))

    @functools.lru_cache(maxsize=None)
    def is_exception(name):
        return name in _EXCEPTION_BASES or any(
            is_exception(b) for b in bases.get(name, ()))

    return {name for name in bases if is_exception(name)}


def scan_attrs(extra=()):
    """Return ``{"<module>:<class>.<attr>": line}`` for every
    ``self.<attr>`` store in ``src/repro`` that nothing loads."""
    parsed = _parse_all(extra)
    exceptions = _exception_classes(parsed)
    stores, loads = {}, set()
    for module, tree, is_src in parsed:
        item_stores = {id(node.value) for node in ast.walk(tree)
                       if isinstance(node, ast.Subscript)
                       and isinstance(node.ctx, (ast.Store, ast.Del))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if (isinstance(node.ctx, ast.Load)
                        and id(node) not in item_stores):
                    loads.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                loads.add(node.value)
            elif (is_src and isinstance(node, ast.ClassDef)
                  and node.name not in exceptions):
                for inner in ast.walk(node):
                    targets = []
                    if isinstance(inner, ast.Assign):
                        targets = inner.targets
                    elif isinstance(inner, (ast.AnnAssign, ast.AugAssign)):
                        targets = [inner.target]
                    for target in targets:
                        for leaf in ast.walk(target):
                            if (isinstance(leaf, ast.Attribute)
                                    and isinstance(leaf.value, ast.Name)
                                    and leaf.value.id == "self"
                                    and not _is_dunder(leaf.attr)):
                                key = f"{module}:{node.name}.{leaf.attr}"
                                stores.setdefault(key, leaf.lineno)
    return {key: line for key, line in stores.items()
            if key.rsplit(".", 1)[1] not in loads}


def _report(found):
    return "\n".join(f"src/repro/{key.split(':')[0]}:{line}: "
                     f"{key.split(':', 1)[1]}"
                     for key, line in sorted(found.items()))


def test_every_definition_has_a_user():
    defs, dead = scan()
    unused = {key: defs[key][0] for key in dead}
    assert not unused, (
        "defined but nothing outside tests uses it; delete it, or "
        "allowlist it with a reason:\n" + _report(unused))


def test_every_option_has_a_caller():
    unpassed = {key: line for key, line in scan_params().items()
                if key not in PARAMS_ALLOWED}
    assert not unpassed, (
        "a defaulted parameter no non-test call passes; inline its "
        "default, or allowlist it with a reason:\n" + _report(unpassed))


def test_every_attribute_has_a_reader():
    unread = scan_attrs()
    assert not unread, (
        "stored on self but nothing outside tests reads it; delete "
        "it:\n" + _report(unread))


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


#: Options and attributes the parameter and attribute rules must judge:
#: one use of each kind the rules accept, and one orphan of each kind.
SYNTHETIC_OPTIONS = [
    ("zz_options.py",
     "class ZzBase:\n"
     "    def __init__(self, zz_unpassed=1, zz_via_super=2):\n"
     "        self.zz_unpassed = zz_unpassed\n"
     "        self.zz_read = zz_via_super\n"
     "        self.zz_unread = 0\n"
     "        self.zz_filled = {}\n"
     "        self.zz_tally = {}\n\n"
     "    def zz_count(self, key):\n"
     "        self.zz_filled[key] = 1\n"
     "        self.zz_tally[key] += 1\n"
     "        del self.zz_filled[key]\n"
     "        return self.zz_tally[key]\n\n"
     "class ZzChild(ZzBase):\n"
     "    def __init__(self):\n"
     "        super().__init__(zz_via_super=3)\n\n"
     "def zz_by_keyword(x, k=0):\n    return x + k\n\n"
     "def zz_by_position(x, p=0):\n    return x + p\n\n"
     "def zz_by_unpacking(x, u=0):\n    return x + u\n\n"
     "def zz_orphan(x, o=0):\n    return x + o\n\n"
     "def zz_main():\n"
     "    zz_by_keyword(1, k=2)\n"
     "    zz_by_position(1, 2)\n"
     "    zz_by_unpacking(1, **{})\n"
     "    zz_orphan(1)\n"
     "    spec = ZzSpec(zz_field=1)\n"
     "    return ZzChild().zz_read + ZzBase().zz_unpassed, spec\n"),
    ("zz_spec.py",
     "@dataclass(frozen=True)\n"
     "class ZzSpec:\n"
     "    zz_field: int = 0\n"
     "    zz_dict_key: int = 0\n"
     "    zz_test_only: int = 0\n\n"
     "def zz_config():\n    return {\"zz_dict_key\": 1}\n"),
    # Test files are not parsed, so a field only a test sets stays an
    # orphan.
    ("tests/test_zz.py", "ZzSpec(zz_test_only=1)\n"),
]


def test_the_option_scans_judge_every_kind_of_use():
    unpassed = scan_params(extra=SYNTHETIC_OPTIONS,
                           specs=SPEC_CLASSES | {"ZzSpec"})
    assert {"zz_options.py:ZzBase.__init__(zz_unpassed)",
            "zz_options.py:zz_orphan(o)",
            "zz_spec.py:ZzSpec(zz_test_only)"} <= unpassed.keys()
    # Keyword, positional, ``**`` and ``super().__init__`` passes, and
    # a spec field passed as a dict literal key, are uses.
    assert not {"zz_options.py:ZzBase.__init__(zz_via_super)",
                "zz_options.py:zz_by_keyword(k)",
                "zz_options.py:zz_by_position(p)",
                "zz_options.py:zz_by_unpacking(u)",
                "zz_spec.py:ZzSpec(zz_field)",
                "zz_spec.py:ZzSpec(zz_dict_key)"} & unpassed.keys()
    unread = scan_attrs(extra=SYNTHETIC_OPTIONS)
    assert {"zz_options.py:ZzBase.zz_unread",
            "zz_options.py:ZzBase.zz_filled"} <= unread.keys()
    assert not {"zz_options.py:ZzBase.zz_read",
                "zz_options.py:ZzBase.zz_unpassed",
                "zz_options.py:ZzBase.zz_tally"} & unread.keys()
    # The allowlist stays short, and each entry is still an orphan.
    assert len(PARAMS_ALLOWED) <= 8
    assert PARAMS_ALLOWED <= scan_params().keys(), (
        "an allowlisted option has a caller now; drop it from "
        "PARAMS_ALLOWED")
