"""Run the gradleaf CLI with a span recorded around each layer call.

    python bench/trace.py SPANS.npz SUBCOMMAND --config CONFIG [gradleaf options]

Run with ``src`` on ``PYTHONPATH``.  The functions listed in ``layers`` are
wrapped from here, at every module binding that refers to them, so nothing
under ``src/`` changes.  Each call records a span (name, start, end,
parent); spans stay in memory and are written to SPANS.npz when the CLI
returns, together with counters read off arguments and return values.
Exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

_T0 = time.perf_counter()
import numpy as np  # noqa: E402  (timed with gradleaf, which imports it too)
from gradleaf import cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0


class Tracer:
    """Spans in flat arrays: ``parent`` is the index of the enclosing span."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack = [-1]
        self.counters = {}
        self.keys = {}

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def note_key(self, key, value):
        self.keys.setdefault(key, set()).add(value)

    def _name_index(self, label):
        if label not in self.names:
            self.names.append(label)
        return self.names.index(label)

    def wrap(self, label, fn, note=None):
        """Wrap ``fn``; ``label`` is a span name or a function of the call's
        positional arguments, ``note(args, result)`` updates counters."""
        fixed = None if callable(label) else self._name_index(label)
        now = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(fixed if fixed is not None
                             else self._name_index(label(args)))
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = now()
                self._stack.pop()
            if note is not None:
                note(args, result)
            return result
        return traced

    def save(self, path):
        np.savez(path, start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 names=np.array(self.names),
                 counters=np.array(json.dumps({
                     **self.counters,
                     **{f"{k}.distinct": len(v) for k, v in self.keys.items()},
                     "cli.import_s": IMPORT_S,
                 })))


def _key(vec):
    return tuple(np.round(np.asarray(vec, dtype=float), 14).ravel())


def layers(tracer):
    """``(module, owner, attribute, span label, note)`` for each wrapped call.

    ``owner`` is a class name for methods and None for module functions.
    """
    t = tracer

    def interpolate_points(args, result):
        t.count("curves.interpolate_points", int(np.size(args[2])))

    def picard(args, result):
        t.count("lyapunov_perron.picard_iterations", result.iterations)

    def reference_key(args, result):
        # (T, z-): the horizon, and the orbit's point at time zero
        t.note_key("reference_curve", (round(args[1].t1, 12), _key(args[0].values[-1])))

    def orbit_key(args, result):
        t.note_key("backward_orbit", _key(args[2]))

    def nfev(args, result):
        t.count("flow.rhs_evals", int(result.nfev))

    def accepted(args, result):
        t.count("foliation.pair_accepted", len(result.samples))

    return [
        ("pipeline", None, "run_stage", lambda a: f"pipeline.{a[0]}", None),
        ("local_model", None, "lipschitz_modulus", "local_model.lipschitz_modulus", None),
        ("local_model", "LocalModel", "h", "local_model.h", None),
        ("local_model", "LocalModel", "dh", "local_model.dh", None),
        ("polynomials", "Polynomial", "gradient", "polynomials.gradient", None),
        ("polynomials", "Polynomial", "hessian", "polynomials.hessian", None),
        ("curves", "PanelGrid", "interpolate", "curves.interpolate", interpolate_points),
        ("kernels", "ExpConvolver", "forward", "kernels.convolve", None),
        ("kernels", "ExpConvolver", "backward", "kernels.convolve", None),
        ("kernels", "ExpConvolver", "__init__", "kernels.convolver_build", None),
        ("lyapunov_perron", None, "fixed_point", "lyapunov_perron.fixed_point", picard),
        ("lyapunov_perron", None, "solve_mixed", "lyapunov_perron.solve_mixed", None),
        ("lyapunov_perron", None, "reference_curve", "lyapunov_perron.reference_curve",
         reference_key),
        ("lyapunov_perron", None, "backward_orbit", "lyapunov_perron.backward_orbit",
         orbit_key),
        ("lyapunov_perron", None, "graph_G_T", "lyapunov_perron.graph_G_T", None),
        ("flow", None, "integrate_forward", "flow.integrate_forward", None),
        ("flow", None, "solve_ivp", "flow.solve_ivp", nfev),
        ("oracle", None, "mixed_bvp_oracle", "oracle.mixed_bvp", None),
        ("convergence", "GraphFamilySolver", "mixed", "convergence.solver_mixed", None),
        ("convergence", None, "c0_convergence", "convergence.check", None),
        ("convergence", None, "c1_convergence", "convergence.check", None),
        ("convergence", None, "lipschitz_in_T", "convergence.check", None),
        ("convergence", None, "endpoint_audit", "convergence.check", None),
        ("foliation", None, "build_pair", "foliation.build_pair", accepted),
        ("foliation", None, "pair_membership", "foliation.pair_membership", None),
        ("foliation", None, "build_atlas", "foliation.build_atlas", None),
        ("foliation", None, "check_disjoint", "foliation.audit", None),
        ("foliation", None, "leaf_invariance", "foliation.audit", None),
        ("foliation", None, "contraction_to_center", "foliation.audit", None),
        ("foliation", None, "retract_audit", "foliation.audit", None),
        ("reporting", None, "write_csv", "reporting.write", None),
        ("reporting", None, "write_json", "reporting.write", None),
    ]


def install(tracer):
    """Replace every binding of each layer function in the gradleaf modules.

    Names such as ``integrate_forward`` or ``backward_orbit`` are imported
    into other modules by name; wrapping only the defining module would
    miss the calls made through those bindings.
    """
    modules = [m for name, m in sys.modules.items()
               if name == "gradleaf" or name.startswith("gradleaf.")]
    for module, owner, attr, label, note in layers(tracer):
        home = sys.modules[f"gradleaf.{module}"]
        if owner is not None:
            cls = getattr(home, owner)
            setattr(cls, attr, tracer.wrap(label, getattr(cls, attr), note))
            continue
        original = getattr(home, attr)
        wrapped = tracer.wrap(label, original, note)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapped)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
