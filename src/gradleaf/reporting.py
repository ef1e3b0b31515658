"""Deterministic CSV/JSON artifact writers.

Floats are rendered with 17 significant digits in scientific notation and
column orders are fixed, so identical configs and seeds produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def fmt(value):
    if type(value) is float or isinstance(value, np.floating):
        # 17 significant digits: exact double roundtrip
        return f"{float(value):.16e}"
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _field(text):
    """``text`` as a CSV field: quoted, with its quotes doubled, when it
    holds a comma, a quote or a line break, else as it is."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def write_csv(path, header, rows):
    """Write ``header`` and ``rows`` as one CSV file in a single ``write``.

    A Python float cell is formatted in place, as ``fmt`` formats it, and
    every other cell goes through ``fmt``; fields are quoted as csv's
    QUOTE_MINIMAL quotes them, and so is one holding a carriage return,
    which a csv writer with a newline terminator may leave bare; lines end
    in a bare newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join([_field(str(h)) for h in header])]
    lines += [",".join([f"{v:.16e}" if type(v) is float else _field(fmt(v)) for v in row])
              for row in rows]
    lines.append("")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines))
    return str(path)


def config_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


def spectral_rows(split):
    return [[i, lam, *vector] for i, (lam, vector) in
            enumerate(zip(split.eigenvalues.tolist(), split.eigenvectors.T.tolist()))]


def graph_rows(sample, model):
    """One row per base point: kind, T, z-, base, value, diagnostics."""
    base = sample.grid_points().tolist()
    gaps = (sample.endpoint_gaps.ravel().tolist() if sample.endpoint_gaps is not None
            else [np.nan] * len(base))
    zm = sample.z_minus.tolist() if sample.z_minus is not None else [0.0] * model.k
    T = sample.T if sample.T is not None else np.inf
    return [[sample.kind, T, *zm, *b, *v, r, it, g]
            for b, v, r, it, g in zip(base, sample.values_flat().tolist(),
                                      sample.residuals.ravel().tolist(),
                                      sample.iterations.ravel().tolist(), gaps)]


def graph_header(model, sample):
    d = len(sample.axes)
    codim = sample.codim
    return (["kind", "T"]
            + [f"zminus_{i}" for i in range(model.k)]
            + [f"base_{i}" for i in range(d)]
            + [f"value_{i}" for i in range(codim)]
            + ["residual", "iterations", "endpoint_gap"])


def trajectory_header(dimension):
    return ["t"] + [f"x{i + 1}" for i in range(dimension)] + ["f"]


def trajectory_rows(problem, trajectory):
    """One row per step end of a forward trajectory (``flow.StepEnds``):
    t, state, f."""
    states = trajectory.states
    return [[t, *x, fv]
            for t, x, fv in zip(trajectory.times, states, problem.f(states))]


def report_rows(report):
    return [row.to_list() for row in report.rows]


def _ambient_rows(model, points):
    """Ambient points, one ``to_ambient`` call each (on a stack it rounds
    differently in a rotated frame), and their objective values, as lists."""
    ambient = np.array([model.to_ambient(p) for p in points]).reshape(-1, model.n)
    return ambient.tolist(), model.problem.f(ambient).tolist()


def atlas_leaf_rows(leaf, model):
    ambient, values = _ambient_rows(model, leaf.graph.local_points())
    return [[*b, *x, v, int(keep)]
            for b, x, v, keep in zip(leaf.graph.grid_points().tolist(), ambient, values,
                                     leaf.inside_mask.ravel().tolist())]


def atlas_leaf_header(model, leaf):
    d = len(leaf.graph.axes)
    return ([f"zplus_{i}" for i in range(d)]
            + [f"x{i + 1}" for i in range(model.n)]
            + ["f", "inside"])


def pair_rows(pair, model):
    ambient, values = _ambient_rows(model, pair.samples)
    return [[*x, v, int(is_exit)]
            for x, v, is_exit in zip(ambient, values, pair.exit_mask.tolist())]
