"""Doc references name code that exists.

Three kinds of reference rot after a deletion:

* a Sphinx role target in ``src/repro`` (``:class:``, ``:meth:``,
  ``:func:``, ``:attr:``, ``:data:``, ``:mod:`` or ``:exc:`` followed
  by ``repro.…`` or ``~repro.…``) that no longer imports and resolves;
* a ``Class.attr`` code span in ``README.md`` or ``docs/*.md``, where
  ``Class`` is exported by a ``repro`` package, whose ``attr`` is
  neither a class attribute nor an attribute the class source assigns
  on ``self``;
* a CamelCase name in those files — a ``Name``, ``Name.attr`` or
  ``Name(…)`` code span, or ``Name.attr``/``Name(`` inside a fenced
  block — that no ``class`` statement in ``src/repro`` defines.

Each failure names the file and line of the stale reference.
"""

import ast
import importlib
import inspect
import keyword
import pathlib
import pkgutil
import re

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

ROLE = re.compile(
    r":(?:class|meth|func|attr|data|mod|exc):`~?(repro\.[\w.]+)`")
#: A backticked ``Name.attr`` span; anything after ``attr`` (call
#: arguments, ``=value``, ``/get``) up to the closing backtick is kept
#: out of the lookup.
DOC_REF = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)[^`]*`")
#: A code span that starts with a capitalized name: ``Name``,
#: ``Name.attr…`` or ``Name(…)``.
SPAN_NAME = re.compile(r"`([A-Z]\w*)(?:[.(][^`\n]*)?`")
#: Inside a fenced block: a capitalized name used as ``Name.attr`` or
#: ``Name(``.
FENCED_NAME = re.compile(r"\b([A-Z]\w*)(?=\.\w|\()")
FENCE = re.compile(r"^```.*?^```", re.S | re.M)
#: CamelCase names the docs may mention that are not repro classes.
NOT_REPRO = {
    "Random",  # random.Random: per-worker RNG streams (docs/api.md)
}

_MISSING = object()


def _self_attrs(cls) -> set:
    """Attribute names the source of ``cls`` and its bases assign on
    ``self`` (``self.x = ...``, ``self.x: T = ...``, ``self.x += ...``)."""
    names = set()
    for klass in cls.__mro__:
        if klass is object or not klass.__module__.startswith("repro"):
            continue
        tree = ast.parse(inspect.getsource(klass).lstrip())
        for node in ast.walk(tree):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target]
                       if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                       else [])
            for target in targets:
                for sub in ast.walk(target):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"):
                        names.add(sub.attr)
    return names


def _member(obj, name):
    """``obj.name``; for an instance attribute of a class (a dataclass
    field or a ``self.name`` assignment) the name stands in for the
    value.  ``_MISSING`` when neither exists."""
    value = getattr(obj, name, _MISSING)
    if value is _MISSING and inspect.isclass(obj):
        if (name in getattr(obj, "__dataclass_fields__", {})
                or name in _self_attrs(obj)):
            return name
    return value


def _resolve(target: str) -> bool:
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        break
    else:
        return False
    for name in parts[split:]:
        obj = _member(obj, name)
        if obj is _MISSING:
            return False
    return True


def _line(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def docstring_targets():
    """``(file:line, target)`` for every role target under src/repro."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for match in ROLE.finditer(text):
            where = (f"{path.relative_to(ROOT).as_posix()}:"
                     f"{_line(text, match.start())}")
            found.append((where, match.group(1)))
    return found


def exported_classes() -> dict:
    """Class name -> class, over every ``repro`` package's ``__all__``."""
    classes = {}
    for info in pkgutil.iter_modules(repro.__path__):
        if not info.ispkg:
            continue
        package = importlib.import_module(f"repro.{info.name}")
        for name in getattr(package, "__all__", ()):
            obj = getattr(package, name, None)
            if inspect.isclass(obj):
                classes.setdefault(name, obj)
    return classes


def markdown_refs():
    """``(file:line, Class, attr)`` for every exported-class span."""
    classes = exported_classes()
    found = []
    for path in DOCS:
        text = path.read_text()
        for match in DOC_REF.finditer(text):
            cls = classes.get(match.group(1))
            if cls is not None:
                where = (f"{path.relative_to(ROOT).as_posix()}:"
                         f"{_line(text, match.start())}")
                found.append((where, cls, match.group(2)))
    return found


def repro_class_names() -> set:
    """Every name a ``class`` statement under src/repro defines."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                names.add(node.name)
    return names


def markdown_class_names():
    """``(file:line, Name)`` for every CamelCase name the docs use as
    code: in a code span outside fenced blocks, or as ``Name.attr`` /
    ``Name(`` inside one."""
    found = []
    for path in DOCS:
        text = path.read_text()
        # Blank the fenced blocks (keeping offsets) for the span scan.
        spans = FENCE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)
        matches = list(SPAN_NAME.finditer(spans))
        for fence in FENCE.finditer(text):
            matches.extend(FENCED_NAME.finditer(text, fence.start(),
                                                fence.end()))
        for match in matches:
            name = match.group(1)
            if re.search("[a-z]", name) and not keyword.iskeyword(name):
                where = (f"{path.relative_to(ROOT).as_posix()}:"
                         f"{_line(text, match.start())}")
                found.append((where, name))
    return found


def test_docstring_role_targets_resolve():
    targets = docstring_targets()
    assert len(targets) > 100, "role scan found almost nothing"
    stale = [f"{where}: {target}" for where, target in targets
             if not _resolve(target)]
    assert not stale, "unresolvable doc targets:\n" + "\n".join(stale)


def test_markdown_class_attributes_exist():
    refs = markdown_refs()
    assert len(refs) > 20, "markdown scan found almost nothing"
    stale = [f"{where}: {cls.__name__}.{attr}" for where, cls, attr in refs
             if _member(cls, attr) is _MISSING]
    assert not stale, "stale Class.attr references:\n" + "\n".join(stale)


def test_markdown_class_names_exist():
    names = markdown_class_names()
    assert len(names) > 50, "class-name scan found almost nothing"
    known = repro_class_names() | NOT_REPRO
    stale = sorted(f"{where}: {name}" for where, name in names
                   if name not in known)
    assert not stale, "names no repro class defines:\n" + "\n".join(stale)
