"""Every defaulted parameter in gradleaf is one a run both uses and overrides.

A default that no call overrides is a constant dressed as a knob: it widens
the signature and the configurations to test without any caller needing
it.  A default that every call overrides is a fallback no run takes: the
code behind it runs only in tests.  "The run" is the code in ``src/`` and
``scripts/``; a test that needs another value sets a module constant with
``monkeypatch`` or builds its inputs explicitly.

The scan reads ``src/gradleaf`` with ``ast`` and matches calls by the
called name (a call of a class counts as a call of its ``__init__``), so
methods of the same name share their callers.  A call sets a parameter
when it passes it by keyword or by position.  A call that forwards
``*args`` or ``**kwargs`` may set any parameter, and may leave any one at
its default.

The fields of a dataclass with a default are parameters of its
constructor, and the same rules hold with two differences.  A default,
plain or ``default_factory``, must be taken by some construction (a call
of the class that leaves it out).  A plain default must also be
overridden: by a construction that passes it, by a keyword of the field's
name in any call (``dataclasses.replace``, or a helper that forwards its
keywords to the constructor), or by an assignment to an attribute of that
name.  A factory default builds a fresh value, so nothing need override it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gradleaf"
CALLER_DIRS = ("src", "scripts")


def _defaulted(func, is_method):
    """``(name, call position or None)`` of each defaulted parameter.

    The position counts the arguments a call writes, so a method's
    ``self`` is not one of them; keyword-only parameters have None.
    """
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - is_method)
           for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None)
            for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def defaulted_parameters(root=PACKAGE):
    """``(qualified function, called name, parameter, position)`` for every
    defaulted parameter of every function under ``root``."""
    found = []

    def visit(node, path, file, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path + [child.name], file, True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                is_method = int(in_class and not static)
                called = (path[-1] if in_class and child.name == "__init__"
                          else child.name)
                where = f"{file}:{'.'.join(path + [child.name])}"
                for name, position in _defaulted(child, is_method):
                    found.append((where, called, name, position))
                visit(child, path + [child.name], file, False)
            else:
                visit(child, path, file, in_class)

    for path in sorted(root.rglob("*.py")):
        file = path.relative_to(root.parent).as_posix()
        visit(ast.parse(path.read_text()), [], file, False)
    return found


def calls(roots):
    """Called name -> one ``(keywords, positional count, forwards)`` per call.

    ``forwards`` is true when the call passes ``*args`` or ``**kwargs``;
    those arguments count neither as keywords nor as positions.  A call of
    ``cls`` in the body of a class is a call of that class.
    """
    seen = {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text())
            # the innermost class around each node: ``walk`` visits an
            # inner class after the outer one
            owner = {id(sub): node.name for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef) for sub in ast.walk(node)}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                if name == "cls":
                    name = owner.get(id(node), name)
                if name is None:
                    continue
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                plain = [a for a in node.args if not isinstance(a, ast.Starred)]
                forwards = (len(plain) < len(node.args)
                            or any(k.arg is None for k in node.keywords))
                seen.setdefault(name, []).append((keywords, len(plain), forwards))
    return seen


def _classify(package, caller_roots):
    """``function(parameter)`` of the defaulted parameters no call sets, and
    of those every call sets."""
    caller_roots = ([ROOT / d for d in CALLER_DIRS] if caller_roots is None
                    else caller_roots)
    seen = calls(caller_roots)
    unset, always = [], []
    for where, called, name, position in defaulted_parameters(package):
        found = seen.get(called, [])
        sets = [name in keywords or (position is not None and count > position)
                for keywords, count, _ in found]
        if not any(s or forwards for s, (_, _, forwards) in zip(sets, found)):
            unset.append(f"{where}({name})")
        elif all(sets):
            always.append(f"{where}({name})")
    return unset, always


def unset_parameters(package=PACKAGE, caller_roots=None):
    """Defaulted parameters that no call passes, as ``function(parameter)``."""
    return _classify(package, caller_roots)[0]


def always_set_parameters(package=PACKAGE, caller_roots=None):
    """Defaulted parameters that every call passes, as ``function(parameter)``."""
    return _classify(package, caller_roots)[1]


def _is_dataclass(node):
    return any("dataclass" in ast.dump(d) for d in node.decorator_list)


def dataclass_defaults(root=PACKAGE):
    """``(file:Class.field, class, field, position, plain)`` for every field
    with a default of every dataclass under ``root``: ``position`` is its
    place among the constructor's arguments, and ``plain`` is false for a
    ``default_factory``.  Fields left out of the constructor (``init=False``)
    and class variables are not fields the constructor takes."""
    found = []
    for path in sorted(root.rglob("*.py")):
        file = path.relative_to(root.parent).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            position = 0
            for item in node.body:
                if not (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and "ClassVar" not in ast.dump(item.annotation)):
                    continue
                value = item.value
                options = ({k.arg: k.value for k in value.keywords}
                           if isinstance(value, ast.Call)
                           and getattr(value.func, "id", None) == "field" else None)
                if options is not None and getattr(options.get("init"), "value", True) is False:
                    continue
                if value is not None and (options is None or "default" in options
                                          or "default_factory" in options):
                    plain = options is None or "default_factory" not in options
                    found.append((f"{file}:{node.name}.{item.target.id}", node.name,
                                  item.target.id, position, plain))
                position += 1
    return found


def attribute_stores(roots):
    """Names assigned as an attribute (``obj.name = ...``) under ``roots``."""
    return {node.attr for root in roots for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}


def _classify_fields(package, caller_roots):
    """``file:Class.field`` of the dataclass defaults no construction takes,
    and of the plain defaults nothing overrides."""
    caller_roots = ([ROOT / d for d in CALLER_DIRS] if caller_roots is None
                    else caller_roots)
    seen = calls(caller_roots)
    keywords = set().union(*(k for found in seen.values() for k, _, _ in found))
    stores = attribute_stores(caller_roots)
    untaken, kept = [], []
    for where, cls, name, position, plain in dataclass_defaults(package):
        built = seen.get(cls, [])
        passed = [name in k or count > position for k, count, _ in built]
        if not any(forwards or not p for p, (_, _, forwards) in zip(passed, built)):
            untaken.append(where)
        if plain and not (any(passed) or name in keywords or name in stores):
            kept.append(where)
    return untaken, kept


def test_every_defaulted_parameter_has_a_caller():
    unset = unset_parameters()
    assert not unset, ("defaulted parameters that no run call sets; make them "
                       "constants: " + ", ".join(unset))


def test_every_default_is_used_by_some_caller():
    always = always_set_parameters()
    assert not always, ("defaulted parameters that every run call sets; make "
                        "them required: " + ", ".join(always))


def test_scan_sees_keywords_positions_and_classes(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def f(a, b=1, *, c=2):\n    return a\n\n"
        "class K:\n    def __init__(self, x=0, y=0):\n        pass\n\n"
        "    def m(self, z=0):\n        pass\n")
    (tmp_path / "use.py").write_text("f(1, 2)\nK(3)\nK(1).m(z=1)\n")
    assert unset_parameters(package, [tmp_path]) == [
        "pkg/mod.py:f(c)", "pkg/mod.py:K.__init__(y)"]
    # every call sets f's b, K's x and m's z
    assert always_set_parameters(package, [tmp_path]) == [
        "pkg/mod.py:f(b)", "pkg/mod.py:K.__init__(x)", "pkg/mod.py:K.m(z)"]


def test_forwarded_arguments_may_set_or_default_any_parameter(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def f(a, b=1, c=2):\n    return a\n\n"
        "def g(a, d=1):\n    return a\n")
    (tmp_path / "use.py").write_text(
        "f(1, c=3)\nf(*args)\ng(1, d=2)\ng(1, **kw)\n")
    # ``*args`` may reach b and ``**kw`` may leave d at its default
    assert unset_parameters(package, [tmp_path]) == []
    assert always_set_parameters(package, [tmp_path]) == []


def test_every_dataclass_default_is_taken_by_some_construction():
    untaken = _classify_fields(PACKAGE, None)[0]
    assert not untaken, ("dataclass defaults that every run construction "
                         "passes; make the fields required: " + ", ".join(untaken))


def test_every_plain_dataclass_default_is_overridden():
    kept = _classify_fields(PACKAGE, None)[1]
    assert not kept, ("dataclass defaults that no run overrides; make them "
                      "constants: " + ", ".join(kept))


def test_scan_sees_dataclass_defaults(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "from dataclasses import dataclass, field\n\n"
        "@dataclass\nclass D:\n    a: int\n    b: int = 0\n"
        "    c: dict = field(default_factory=dict)\n"
        "    d: int = field(default=0, init=False)\n    e: int = 1\n"
        "    f: int = 2\n    g: int = 3\n    h: list = field(default_factory=list)\n")
    (tmp_path / "use.py").write_text(
        "D(1, 2)\nD(1, c={}, h=[])\nreplace(x, e=5)\nx.f = 4\n\n"
        "class D:\n    @classmethod\n    def make(cls, **kw):\n        return cls(**kw)\n")
    # b is passed by position; e by a keyword of another call, f by an
    # attribute store; d is not a constructor argument; g is never set
    assert _classify_fields(package, [tmp_path]) == ([], ["pkg/mod.py:D.g"])
    # without the forwarding ``cls`` call no construction leaves c or h out
    (tmp_path / "use.py").write_text("D(1, 2, {}, 4, h=[])\nD(1, c={}, h=[])\n")
    assert _classify_fields(package, [tmp_path]) == (
        ["pkg/mod.py:D.c", "pkg/mod.py:D.h"], ["pkg/mod.py:D.f", "pkg/mod.py:D.g"])
