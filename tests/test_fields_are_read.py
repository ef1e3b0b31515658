"""Every value a run stores on an object is one some code reads back.

A field that is written on every run and read by no code costs the work
that fills it and hides which state the checks depend on.  The scan reads
``src/gradleaf`` with ``ast`` and lists its stored attributes: the fields of
every dataclass (annotated names in the body of a class decorated with
``dataclass``) and every attribute that a method assigns on ``self``
(``self.name = ...``, an augmented ``self.name += ...`` included).  An
attribute counts as read when its name is loaded as an attribute
(``obj.name``) in ``src/gradleaf``, in ``scripts/`` or in
``bench/trace.py``, or is fetched by ``getattr`` with a constant name.  A
dataclass whose methods call ``fields(self)`` reads every one of its
fields (``RateLadder.echo`` writes them all to ``ladder.csv`` that way).  A
store is not a read, and neither is an augmented assignment such as
``x.n += 1``.  Names are matched, not resolved, so a field shares the
reads of every other attribute of its name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gradleaf"
READERS = (PACKAGE, ROOT / "scripts", ROOT / "bench" / "trace.py")


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None)
        if name == "dataclass":
            return True
    return False


def _reads_own_fields(node):
    """True when a method of the class ``node`` calls ``fields(self)``."""
    return any(isinstance(sub, ast.Call) and len(sub.args) == 1
               and getattr(sub.func, "id", getattr(sub.func, "attr", None)) == "fields"
               and getattr(sub.args[0], "id", None) == "self"
               for sub in ast.walk(node))


def stored_fields(package=PACKAGE):
    """``file:Class.name`` of every dataclass field and every attribute a
    method of a class assigns on ``self``, each once."""
    found = []
    for source in sorted(package.rglob("*.py")):
        file = source.relative_to(package.parent).as_posix()
        for node in ast.walk(ast.parse(source.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            names = []
            for item in node.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and _is_dataclass(node)):
                    names.append(item.target.id)
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names += [sub.attr for sub in ast.walk(item)
                              if isinstance(sub, ast.Attribute)
                              and isinstance(sub.ctx, ast.Store)
                              and isinstance(sub.value, ast.Name)
                              and sub.value.id == "self"]
            found += [f"{file}:{node.name}.{name}" for name in dict.fromkeys(names)]
    return found


def self_read_fields(package=PACKAGE):
    """``file:Class.name`` of every field of a dataclass that reads them all
    through ``fields(self)``."""
    found = []
    for source in sorted(package.rglob("*.py")):
        file = source.relative_to(package.parent).as_posix()
        for node in ast.walk(ast.parse(source.read_text())):
            if (isinstance(node, ast.ClassDef) and _is_dataclass(node)
                    and _reads_own_fields(node)):
                found += [f"{file}:{node.name}.{item.target.id}" for item in node.body
                          if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)]
    return found


def attribute_reads(roots=READERS):
    """The names read as attributes under ``roots`` (directories or files):
    loaded ``obj.name`` and ``getattr(obj, "name")``."""
    reads = set()
    for root in roots:
        for source in sorted([root] if root.is_file() else root.rglob("*.py")):
            for node in ast.walk(ast.parse(source.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "getattr" and len(node.args) >= 2
                      and isinstance(node.args[1], ast.Constant)
                      and isinstance(node.args[1].value, str)):
                    reads.add(node.args[1].value)
    return reads


def unread_fields(package=PACKAGE, roots=READERS):
    """Stored attributes under ``package`` whose name no code under
    ``roots`` reads, as ``file:Class.name``."""
    reads, self_read = attribute_reads(roots), set(self_read_fields(package))
    return [field for field in stored_fields(package)
            if field.rsplit(".", 1)[1] not in reads and field not in self_read]


def test_every_stored_field_is_read():
    unread = unread_fields()
    assert not unread, ("fields that a run stores and no code reads; delete "
                        "them and the work that fills them: " + ", ".join(unread))


def test_scan_sees_stores_counters_and_reads(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "from dataclasses import dataclass, field, fields\n\n"
        "@dataclass\nclass Record:\n    kept: float\n    stored: float\n"
        "    scripted: int = 0\n    traced: list = field(default_factory=list)\n\n"
        "class Plain:\n    annotated: int = 0\n\n"
        "@dataclass\nclass Echoed:\n    shown: float\n\n"
        "    def echo(self):\n"
        "        return {f.name: getattr(self, f.name) for f in fields(self)}\n\n"
        "class Counter:\n    def __init__(self):\n        self.hits = 0\n"
        "        self.looked_up = 1\n\n"
        "    def tick(self):\n        self.hits += 1\n"
        "        return getattr(self, 'looked_up')\n\n"
        "def use(record):\n    record.stored = record.kept\n    return record\n")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "run.py").write_text("def show(record):\n    print(record.scripted)\n")
    trace = tmp_path / "trace.py"
    trace.write_text("def note(result):\n    return len(result.traced)\n")
    assert stored_fields(package) == [
        "pkg/mod.py:Record.kept", "pkg/mod.py:Record.stored",
        "pkg/mod.py:Record.scripted", "pkg/mod.py:Record.traced",
        "pkg/mod.py:Echoed.shown",
        "pkg/mod.py:Counter.hits", "pkg/mod.py:Counter.looked_up"]
    # a dataclass reading its fields through ``fields(self)`` reads each one
    assert self_read_fields(package) == ["pkg/mod.py:Echoed.shown"]
    # a field only stored and a counter only incremented are flagged
    assert unread_fields(package, (package, scripts, trace)) == [
        "pkg/mod.py:Record.stored", "pkg/mod.py:Counter.hits"]
    # without the script and the tracer, their reads are missing
    assert unread_fields(package, (package,)) == [
        "pkg/mod.py:Record.stored", "pkg/mod.py:Record.scripted",
        "pkg/mod.py:Record.traced", "pkg/mod.py:Counter.hits"]
