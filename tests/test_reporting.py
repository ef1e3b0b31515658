import csv

import numpy as np

from gradleaf import reporting


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
