"""Every defaulted parameter in gradleaf is set by some caller.

A default that no call overrides is a constant dressed as a knob: it widens
the signature and the configurations to test without any caller needing
it.  The scan reads ``src/gradleaf`` with ``ast`` and matches calls by the
called name (a call of a class counts as a call of its ``__init__``), so
methods of the same name share their callers.  A parameter counts as set
when a call in ``src/``, ``tests/`` or ``scripts/`` passes it by keyword or
by position, or forwards ``*args`` / ``**kwargs`` that could carry it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gradleaf"
CALLER_DIRS = ("src", "tests", "scripts")
#: stands for a call that forwards ``*args``: it may reach any position
ANY_POSITION = float("inf")


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
    """Called name -> (keywords passed, largest count of positional arguments).

    A ``**kwargs`` argument is recorded as the keyword None, and a
    ``*args`` argument as ``ANY_POSITION`` positional arguments.
    """
    seen = {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                if name is None:
                    continue
                keywords, count = seen.get(name, (set(), 0))
                keywords.update(k.arg for k in node.keywords)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                seen[name] = (keywords, max(count, ANY_POSITION if starred
                                            else len(node.args)))
    return seen


def unset_parameters(package=PACKAGE, caller_roots=None):
    """Defaulted parameters that no call passes, as ``function(parameter)``."""
    caller_roots = ([ROOT / d for d in CALLER_DIRS] if caller_roots is None
                    else caller_roots)
    seen = calls(caller_roots)
    unset = []
    for where, called, name, position in defaulted_parameters(package):
        keywords, count = seen.get(called, (set(), 0))
        by_position = position is not None and count > position
        if not (name in keywords or None in keywords or by_position):
            unset.append(f"{where}({name})")
    return unset


def test_every_defaulted_parameter_has_a_caller():
    unset = unset_parameters()
    assert not unset, ("defaulted parameters that no caller sets; make them "
                       "constants: " + ", ".join(unset))


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
