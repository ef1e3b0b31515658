"""Every output of a run: the report model, one ``(header, rows)`` table
function per CSV artifact, and the deterministic CSV/JSON writers.

Floats are rendered with 17 significant digits in scientific notation and
column orders are fixed, so identical configs and seeds produce
byte-identical files.  A report row asserts one inequality of its gap
against bound + budget, and its ``pass`` and ``slack`` follow from it.
"""

from __future__ import annotations

import hashlib
import json
import operator
import re
from dataclasses import dataclass, field
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


#: each inequality a report row may assert, as a test of (gap, bound + budget)
_HOLDS = {"<=": operator.le, "<": operator.lt, ">": operator.gt}


@dataclass
class ReportRow:
    check: str
    T: float
    z_minus_label: str
    z_plus_label: str
    direction_label: str
    gap: float
    bound: float
    budget: float
    #: gap against bound + budget: at most ("<="), strictly below ("<", the
    #: retract audit's inward rows) or strictly above (">", a separation)
    relation: str = "<="

    @property
    def ok(self):
        return _HOLDS[self.relation](self.gap, self.bound + self.budget)

    @property
    def slack(self):
        """Distance to failing: non-negative on a passing row."""
        if self.relation == ">":
            return self.gap - self.bound - self.budget
        return self.bound + self.budget - self.gap

    def to_list(self):
        return [self.check, self.T, self.z_minus_label, self.z_plus_label,
                self.direction_label, self.gap, self.bound, self.budget,
                self.slack, int(self.ok)]


REPORT_COLUMNS = ["check", "T", "z_minus", "z_plus", "direction",
                  "gap", "bound", "budget", "slack", "pass"]


@dataclass
class Report:
    """The rows of one check or audit, and what it measured besides."""

    kind: str
    rows: list = field(default_factory=list)
    fitted_rates: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def all_ok(self):
        """True when every row passes; a report with no rows checked nothing
        and fails."""
        return bool(self.rows) and all(r.ok for r in self.rows)

    def describe_worst(self):
        """One line naming the report and its worst row: the failing row with
        the least slack, else the passing row with the least slack."""
        row = min(self.rows, key=lambda r: (r.ok, r.slack), default=None)
        if row is None:
            return f"report {self.kind} has no rows"
        return (f"report {self.kind}, row check={row.check} T={row.T:.6g} "
                f"z_minus={row.z_minus_label} z_plus={row.z_plus_label}: "
                f"gap {row.gap:.3e}, bound {row.bound:.3e}, budget {row.budget:.3e}")

    def add(self, **kw):
        self.rows.append(ReportRow(**kw))


def vector_label(vec):
    """A point as a report label: ``(x1,x2,...)``, 6 significant digits each."""
    return "(" + ",".join(f"{v:.6g}" for v in np.atleast_1d(vec)) + ")"


def report_table(report):
    return REPORT_COLUMNS, [row.to_list() for row in report.rows]


def spectral_table(split):
    return (["index", "eigenvalue"] + [f"v{i + 1}" for i in range(split.dimension)],
            [[i, lam, *vector] for i, (lam, vector) in
             enumerate(zip(split.eigenvalues.tolist(), split.eigenvectors.T.tolist()))])


def ladder_table(ladder):
    return ["constant", "value"], sorted(ladder.echo().items())


def graph_table(sample, model):
    """One row per base point: kind, T, z-, base, value, diagnostics."""
    header = (["kind", "T"]
              + [f"zminus_{i}" for i in range(model.k)]
              + [f"base_{i}" for i in range(len(sample.axes))]
              + [f"value_{i}" for i in range(sample.codim)]
              + ["residual", "iterations", "endpoint_gap"])
    base = sample.grid_points().tolist()
    gaps = (sample.endpoint_gaps.ravel().tolist() if sample.endpoint_gaps is not None
            else [np.nan] * len(base))
    zm = sample.z_minus.tolist() if sample.z_minus is not None else [0.0] * model.k
    T = sample.T if sample.T is not None else np.inf
    return header, [[sample.kind, T, *zm, *b, *v, r, it, g]
                    for b, v, r, it, g in zip(base, sample.values_flat().tolist(),
                                              sample.residuals.ravel().tolist(),
                                              sample.iterations.ravel().tolist(), gaps)]


def trajectory_table(problem, trajectory):
    """One row per step end of a forward trajectory (``flow.StepEnds``):
    t, state, f."""
    states = trajectory.states
    return (["t"] + [f"x{i + 1}" for i in range(problem.dimension)] + ["f"],
            [[t, *x, fv]
             for t, x, fv in zip(trajectory.times, states, problem.f(states))])


def _ambient_rows(model, points):
    """Ambient points, one ``to_ambient`` call each (on a stack it rounds
    differently in a rotated frame), and their objective values, as lists."""
    ambient = np.array([model.to_ambient(p) for p in points]).reshape(-1, model.n)
    return ambient.tolist(), model.problem.f(ambient).tolist()


def atlas_leaf_table(leaf, model):
    ambient, values = _ambient_rows(model, leaf.graph.local_points())
    return ([f"zplus_{i}" for i in range(len(leaf.graph.axes))]
            + [f"x{i + 1}" for i in range(model.n)] + ["f", "inside"],
            [[*b, *x, v, int(keep)]
             for b, x, v, keep in zip(leaf.graph.grid_points().tolist(), ambient, values,
                                      leaf.inside_mask.tolist())])


def pair_table(pair, model):
    ambient, values = _ambient_rows(model, pair.samples)
    return ([f"x{i + 1}" for i in range(model.n)] + ["f", "exit"],
            [[*x, v, int(is_exit)]
             for x, v, is_exit in zip(ambient, values, pair.exit_mask.tolist())])


def oracle_table(model, queries, comparisons):
    """One row per oracle query ``(T, z-, z+)``: the query, then its
    ``(sup error, shot residual)`` from ``comparisons``."""
    return (["T"] + [f"zminus_{i}" for i in range(model.k)]
            + [f"zplus_{i}" for i in range(model.n - model.k)]
            + ["sup_error", "shot_residual"],
            [[T, *np.atleast_1d(zm), *np.atleast_1d(zp), err, residual]
             for (T, zm, zp), (err, residual) in zip(queries, comparisons)])
