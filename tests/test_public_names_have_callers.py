"""Every public name defined in gradleaf is reached by the code a run uses.

A function, class, method or property that only tests call is code every
run carries and no run needs.  The scan reads ``src/gradleaf`` with ``ast``
and lists its public definitions: module-level functions and classes, and
the methods and properties of classes, whose names do not start with an
underscore.  A definition counts as reached when its name is read in
``src/gradleaf`` outside its own body and outside ``__init__.py`` (whose
re-exports reach nothing), or in ``scripts/``, or when it is a name that
the benchmark tracer (``bench/trace.py``) wraps.  A function or class is
reached by a read as a name or an attribute; a method or property only by
a read as an attribute, so a local variable of the same name does not
reach it.  Names are matched, not resolved, so methods of the same name
share their callers.  A test that needs an independent reference keeps it in
``tests/``.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gradleaf"
SCRIPTS = ROOT / "scripts"
TRACE = ROOT / "bench" / "trace.py"


def public_definitions(package=PACKAGE):
    """``(file, qualified name, name, first line, last line, member)`` of
    every public function, class, method and property under ``package``;
    ``member`` is True for a class's methods and properties."""
    found = []

    def visit(body, path, file):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                found.append((file, ".".join(path + [node.name]), node.name,
                              node.lineno, node.end_lineno, bool(path)))
            if isinstance(node, ast.ClassDef):
                visit(node.body, path + [node.name], file)

    for source in sorted(package.rglob("*.py")):
        file = source.relative_to(package.parent).as_posix()
        visit(ast.parse(source.read_text()).body, [], file)
    return found


def name_reads(roots, skip=("__init__.py",)):
    """``(file, line, name, attribute)`` of every name or attribute read
    under ``roots``, ``attribute`` telling which; files named in ``skip``
    are not read."""
    reads = []
    for root in roots:
        for source in sorted(root.rglob("*.py")):
            if source.name in skip:
                continue
            file = source.relative_to(root.parent).as_posix()
            for node in ast.walk(ast.parse(source.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.append((file, node.lineno, node.id, False))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.append((file, node.lineno, node.attr, True))
    return reads


def traced_names(trace=TRACE):
    """The attribute names that the tracer's ``layers()`` wraps."""
    spec = importlib.util.spec_from_file_location("bench_trace", trace)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {attr for _, _, attr, _, _ in module.layers(module.Tracer())}


def unreached_definitions(package=PACKAGE, caller_roots=(SCRIPTS,), traced=None):
    """Public definitions under ``package`` that nothing a run uses reads,
    as ``file:qualified name``."""
    traced = traced_names() if traced is None else traced
    reads = name_reads([package, *caller_roots])
    unreached = []
    for file, qualified, name, first, last, member in public_definitions(package):
        if name in traced:
            continue
        if any(read == name and (attribute or not member)
               and not (where == file and first <= line <= last)
               for where, line, read, attribute in reads):
            continue
        unreached.append(f"{file}:{qualified}")
    return unreached


def test_every_public_name_is_reached_by_a_run():
    unreached = unreached_definitions()
    assert not unreached, ("public definitions that only tests reach; delete "
                           "them or move them into tests/: " + ", ".join(unreached))


def test_scan_sees_methods_properties_and_own_bodies(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import g, h\n")
    (package / "mod.py").write_text(
        "def f():\n    return g()\n\n"
        "def g():\n    return g()\n\n"
        "def h():\n    return 0\n\n"
        "def _private():\n    return 0\n\n"
        "class K:\n    def m(self):\n        return self.m()\n\n"
        "    @property\n    def p(self):\n        return 1\n\n"
        "    def q(self):\n        return self.p\n\n"
        "    @property\n    def r(self):\n        return 2\n")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    # the local r shadows the property's name but reads no attribute
    (scripts / "use.py").write_text(
        "from pkg.mod import K, f\nK().q()\nf()\nr = 3\nprint(r)\n")
    assert unreached_definitions(package, [scripts], traced={"h"}) == [
        "pkg/mod.py:K.m", "pkg/mod.py:K.r"]
    assert unreached_definitions(package, [scripts], traced=set()) == [
        "pkg/mod.py:h", "pkg/mod.py:K.m", "pkg/mod.py:K.r"]
