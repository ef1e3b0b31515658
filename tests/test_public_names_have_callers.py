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
reach it.  Names are matched, not resolved.  So a method or property whose
name another class of the package also defines, as a method, property,
class attribute, dataclass field or attribute its methods assign on
``self``, is ambiguous: a read of the name may reach either.  It counts as
reached only when ``AMBIGUOUS_READS`` lists it with the read that reaches
it, and that read is still there.  An entry of ``AMBIGUOUS_READS`` that no
longer names such a definition (it is gone, or no other class defines its
name any more) fails the scan too.  A test that needs an independent
reference keeps it in ``tests/``.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gradleaf"
SCRIPTS = ROOT / "scripts"
TRACE = ROOT / "bench" / "trace.py"
#: per class, each method or property whose name another class defines,
#: with the attribute read that reaches it: (file, the read as written)
AMBIGUOUS_READS = {
    "gradleaf/curves.py:Curve.evaluate":
        ("gradleaf/lyapunov_perron.py", "orbit_curve.evaluate"),
    "gradleaf/local_model.py:LocalModel.grid":
        ("gradleaf/lyapunov_perron.py", "model.grid"),
    "gradleaf/lyapunov_perron.py:FixedPointResult.reference":
        ("gradleaf/lyapunov_perron.py", "orbit.reference"),
    "gradleaf/lyapunov_perron.py:IntegralOperator.curve":
        ("gradleaf/lyapunov_perron.py", "operator.curve"),
    # the method shares its name with the field FixedPointResult.graph_value
    "gradleaf/lyapunov_perron.py:IntegralOperator.graph_value":
        ("gradleaf/lyapunov_perron.py", "operator.graph_value"),
    "gradleaf/lyapunov_perron.py:GraphSample.evaluate":
        ("gradleaf/lyapunov_perron.py", "self.evaluate"),
    "gradleaf/lyapunov_perron.py:GraphSample.interp_tolerance":
        ("gradleaf/foliation.py", "center.graph.interp_tolerance"),
    "gradleaf/lyapunov_perron.py:GraphSample.residual":
        ("gradleaf/foliation.py", "target.graph.residual"),
    # argparse calls it on every usage error; the CLI on a negative seed
    "gradleaf/cli.py:_Parser.error": ("gradleaf/cli.py", "parser.error"),
}


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


def classes_per_name(package=PACKAGE):
    """For each name, how many classes under ``package`` define it: as a
    method, property, class attribute or dataclass field, or by assigning
    it on ``self`` in a method."""
    counts = Counter()
    for source in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            names = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                    names.update(
                        sub.attr for sub in ast.walk(item)
                        if isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name) and sub.value.id == "self")
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names.add(item.target.id)
                elif isinstance(item, ast.Assign):
                    names.update(t.id for t in item.targets if isinstance(t, ast.Name))
            counts.update(names)
    return counts


def name_reads(roots, skip=("__init__.py",)):
    """``(file, line, name, attribute, text)`` of every name or attribute
    read under ``roots``, ``attribute`` telling which and ``text`` the read
    as written; files named in ``skip`` are not read."""
    reads = []
    for root in roots:
        for source in sorted(root.rglob("*.py")):
            if source.name in skip:
                continue
            file = source.relative_to(root.parent).as_posix()
            for node in ast.walk(ast.parse(source.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.append((file, node.lineno, node.id, False, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.append((file, node.lineno, node.attr, True,
                                  ast.unparse(node)))
    return reads


def traced_names(trace=TRACE):
    """The attribute names that the tracer's ``layers()`` wraps."""
    spec = importlib.util.spec_from_file_location("bench_trace", trace)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {attr for _, _, attr, _, _ in module.layers(module.Tracer())}


def unreached_definitions(package=PACKAGE, caller_roots=(SCRIPTS,), traced=None,
                          ambiguous_reads=None):
    """Public definitions under ``package`` that nothing a run uses reads,
    as ``file:qualified name``.  A method or property whose name another
    class defines is reached only by the read its entry in
    ``ambiguous_reads`` (by default ``AMBIGUOUS_READS``) names."""
    traced = traced_names() if traced is None else traced
    ambiguous_reads = AMBIGUOUS_READS if ambiguous_reads is None else ambiguous_reads
    reads = name_reads([package, *caller_roots])
    defining = classes_per_name(package)
    unreached = []
    for file, qualified, name, first, last, member in public_definitions(package):
        where_qualified = f"{file}:{qualified}"
        outside = ((where, read, attribute, text)
                   for where, line, read, attribute, text in reads
                   if not (where == file and first <= line <= last))
        if member and defining[name] > 1:
            listed = ambiguous_reads.get(where_qualified)
            reached = any((where, text) == listed for where, _, _, text in outside)
        else:
            reached = name in traced or any(
                read == name and (attribute or not member)
                for _, read, attribute, _ in outside)
        if not reached:
            unreached.append(where_qualified)
    return unreached


def stale_ambiguous_reads(package=PACKAGE, ambiguous_reads=None):
    """Entries of ``ambiguous_reads`` (by default ``AMBIGUOUS_READS``) that
    name no method or property under ``package`` whose name more than one
    class defines, in entry order."""
    ambiguous_reads = AMBIGUOUS_READS if ambiguous_reads is None else ambiguous_reads
    defining = classes_per_name(package)
    shared = {f"{file}:{qualified}"
              for file, qualified, name, _, _, member in public_definitions(package)
              if member and defining[name] > 1}
    return [entry for entry in ambiguous_reads if entry not in shared]


def test_every_public_name_is_reached_by_a_run():
    unreached = unreached_definitions()
    assert not unreached, ("public definitions that only tests reach; delete "
                           "them or move them into tests/: " + ", ".join(unreached))
    stale = stale_ambiguous_reads()
    assert not stale, ("AMBIGUOUS_READS entries that name no definition whose "
                       "name another class shares; delete them: " + ", ".join(stale))


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
        "    @property\n    def r(self):\n        return 2\n\n"
        "class Run:\n    terminal: float = 3.0\n\n"
        "class Trajectory:\n    @property\n    def terminal(self):\n        return 4\n\n"
        "class Orbit:\n    @property\n    def end(self):\n        return 5\n\n"
        "class Leaf:\n    def __init__(self):\n        self.end = 6\n")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    # the local r shadows the property's name but reads no attribute; the
    # read of terminal reaches Run's field, not Trajectory's property
    (scripts / "use.py").write_text(
        "from pkg.mod import K, Leaf, Orbit, Run, Trajectory, f\nK().q()\nf()\n"
        "r = 3\nprint(r)\nprint(Run().terminal, Trajectory(), Orbit().end, Leaf())\n")
    assert unreached_definitions(package, [scripts], traced={"h"}) == [
        "pkg/mod.py:K.m", "pkg/mod.py:K.r", "pkg/mod.py:Trajectory.terminal",
        "pkg/mod.py:Orbit.end"]
    assert unreached_definitions(package, [scripts], traced=set()) == [
        "pkg/mod.py:h", "pkg/mod.py:K.m", "pkg/mod.py:K.r",
        "pkg/mod.py:Trajectory.terminal", "pkg/mod.py:Orbit.end"]
    # a shared name is reached when listed with a read that is there
    listed = {
        "pkg/mod.py:Trajectory.terminal": ("scripts/use.py", "Trajectory().terminal"),
        "pkg/mod.py:Orbit.end": ("scripts/use.py", "Orbit().end"),
    }
    assert unreached_definitions(package, [scripts], traced={"h"},
                                 ambiguous_reads=listed) == [
        "pkg/mod.py:K.m", "pkg/mod.py:K.r", "pkg/mod.py:Trajectory.terminal"]
    assert stale_ambiguous_reads(package, listed) == []
    # an entry is stale when its name is no longer shared, when its
    # definition is gone, and when it names a module-level function
    stale = dict(listed, **{"pkg/mod.py:K.q": ("scripts/use.py", "K().q"),
                            "pkg/mod.py:Gone.end": ("scripts/use.py", "Orbit().end"),
                            "pkg/mod.py:f": ("scripts/use.py", "f")})
    assert stale_ambiguous_reads(package, stale) == [
        "pkg/mod.py:K.q", "pkg/mod.py:Gone.end", "pkg/mod.py:f"]
