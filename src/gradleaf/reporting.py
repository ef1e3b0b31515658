"""Deterministic CSV/JSON artifact writers.

Floats are rendered with 17 significant digits in scientific notation and
column orders are fixed, so identical configs and seeds produce
byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np


def fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        # 17 significant digits: exact double roundtrip
        return f"{float(value):.16e}"
    return str(value)


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
    return str(path)


def config_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return str(path)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def spectral_rows(split):
    rows = []
    for i, lam in enumerate(split.eigenvalues):
        rows.append([i, lam, *split.eigenvectors[:, i]])
    return rows


def graph_rows(sample, model):
    """One row per base point: kind, T, z-, base, value, diagnostics."""
    base = sample.grid_points()
    vals = sample.values_flat()
    residuals = sample.residuals.ravel()
    iters = sample.iterations.ravel()
    gaps = (sample.endpoint_gaps.ravel() if sample.endpoint_gaps is not None
            else np.full(base.shape[0], np.nan))
    zm = sample.z_minus if sample.z_minus is not None else np.zeros(model.k)
    T = sample.T if sample.T is not None else np.inf
    rows = []
    for b, v, r, it, g in zip(base, vals, residuals, iters, gaps):
        rows.append([sample.kind, T, *zm, *b, *v, r, it, g])
    return rows


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


def report_rows(report):
    return [row.to_list() for row in report.rows]


def atlas_leaf_rows(leaf, model):
    base = leaf.graph.grid_points()
    points = leaf.graph.local_points()
    inside = leaf.inside_mask.ravel()
    rows = []
    for b, point, keep in zip(base, points, inside):
        ambient = model.to_ambient(point)
        rows.append([*b, *ambient, model.f_local(point), int(keep)])
    return rows


def atlas_leaf_header(model, leaf):
    d = len(leaf.graph.axes)
    return ([f"zplus_{i}" for i in range(d)]
            + [f"x{i + 1}" for i in range(model.n)]
            + ["f", "inside"])


def pair_rows(pair, model):
    rows = []
    for p, is_exit in zip(pair.samples, pair.exit_mask):
        ambient = model.to_ambient(p)
        rows.append([*ambient, model.f_local(p), int(is_exit)])
    return rows
