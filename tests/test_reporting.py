import csv
import math

import numpy as np
import pytest

from conftest import reference_problem
from gradleaf import pipeline, reporting

#: every table function of ``reporting``, one per kind of CSV artifact
TABLES = ("spectral_table", "ladder_table", "graph_table", "trajectory_table",
          "report_table", "atlas_leaf_table", "pair_table", "oracle_table")


def csv_module_write(path, header, rows):
    """``write_csv`` as it was written through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([reporting.fmt(v) for v in row])


def test_write_csv_matches_csv_module(tmp_path):
    header = ["label", "a,b", 'say "x"', "value"]
    rows = [
        ["plain", "k2, p3", 'a "quoted" label', 1.5],
        [True, False, np.bool_(True), np.bool_(False)],
        [np.int64(-7), 3, 0, np.int64(2) ** 40],
        [np.float64(0.1), 1e-300, -0.0, 0.0],
        [float("nan"), float("inf"), float("-inf"), np.float64("nan")],
        [np.float64("-inf"), -np.float64(0.0), 2.0 / 3.0, "str"],
        ['"', ",", "", "x,\"y\",z"],
    ]
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    assert reporting.write_csv(ours, header, rows) == str(ours)
    csv_module_write(theirs, header, rows)
    assert ours.read_bytes() == theirs.read_bytes()
    reporting.write_csv(ours, header, [])
    csv_module_write(theirs, header, [])
    assert ours.read_bytes() == theirs.read_bytes()


def test_write_csv_line_breaks_read_back(tmp_path):
    path = tmp_path / "breaks.csv"
    rows = [["a\nb", "c\rd", "e\r\nf", 1.0]]
    reporting.write_csv(path, ["x", "y", "z", "w"], rows)
    with open(path, newline="") as fh:
        back = list(csv.reader(fh))
    assert back == [["x", "y", "z", "w"], ["a\nb", "c\rd", "e\r\nf", reporting.fmt(1.0)]]


@pytest.mark.parametrize("check, relation, gap, bound, budget, ok", [
    # gap == bound + budget: "at most" holds, the strict inequalities do not
    ("c0", "<=", 1.5, 1.0, 0.5, True),
    ("retract_inward", "<", 1.5, 1.0, 0.5, False),
    ("disjoint", ">", 1.5, 1.0, 0.5, False),
    # a NaN gap fails every inequality
    ("c0", "<=", math.nan, 1.0, 0.5, False),
    ("retract_inward", "<", math.nan, 0.0, 0.0, False),
    ("disjoint", ">", math.nan, 1.0, 0.0, False),
    # an inward quotient of zero, of either sign, is not strictly below zero
    ("retract_inward", "<", 0.0, 0.0, 0.0, False),
    ("retract_inward", "<", -0.0, 0.0, 0.0, False),
    ("retract_inward", "<", -1e-300, 0.0, 0.0, True),
])
def test_row_verdict_follows_its_inequality(check, relation, gap, bound, budget, ok):
    row = reporting.ReportRow(check, 1.0, "", "", "", gap=gap, bound=bound,
                              budget=budget, relation=relation)
    assert row.ok is ok
    assert row.to_list()[-1] == int(ok)
    report = reporting.Report(check, rows=[row])
    assert report.all_ok is ok
    # off the boundary the sign of the slack tells the verdict
    if row.slack != 0 and not math.isnan(row.slack):
        assert (row.slack > 0) is ok


def test_every_table_has_rows_as_long_as_its_header(tmp_path, monkeypatch):
    # each CSV of a p2 ``all`` run comes from one table function, and every
    # row of a table is as long as its header
    assert sorted(TABLES) == sorted(name for name in vars(reporting)
                                    if name.endswith("_table"))
    tables = {name: [] for name in TABLES}
    for name in TABLES:
        def recorded(*args, _table=getattr(reporting, name), _name=name):
            table = _table(*args)
            tables[_name].append(table)
            return table
        monkeypatch.setattr(reporting, name, recorded)
    state = pipeline.run(reference_problem("p2_quartic"), tmp_path, ("all",), 0, None)
    assert all(status == "pass" for status in state.statuses.values())
    assert sum(map(len, tables.values())) == len(list(tmp_path.glob("*.csv")))
    for name, made in tables.items():
        assert made, f"{name} made no table"
        for header, rows in made:
            assert rows, name
            assert all(len(row) == len(header) for row in rows), name
