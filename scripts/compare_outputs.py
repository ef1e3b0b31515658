"""Compare the CSV artifacts and manifests of two gradleaf output directories.

Usage: python scripts/compare_outputs.py DIR_A DIR_B

For every CSV name found in either directory (searched recursively, so two
``run_references.py`` trees compare config by config) it prints
"identical" when the files are byte-identical, and otherwise the largest
absolute difference per numeric column with the first-column key of its
row (the first such row on a tie), and the count of differing cells in
non-numeric columns.  For every ``manifest.json`` it drops
``wall_times`` and prints "equal apart from wall_times" or the key paths
that differ.  Exits 1 when a file is missing on one side, the shapes or
headers differ, a non-numeric cell differs, a numeric difference exceeds
1e-14, or a manifest differs; 0 otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

TOLERANCE = 1e-14


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(path_a, path_b):
    """``(ok, lines)`` for one pair of CSV files."""
    if path_a.read_bytes() == path_b.read_bytes():
        return True, ["identical"]
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return False, ["headers differ"]
    header, rows_a, rows_b = rows_a[0], rows_a[1:], rows_b[1:]
    if len(rows_a) != len(rows_b) or any(len(a) != len(b) for a, b in zip(rows_a, rows_b)):
        return False, [f"shapes differ: {len(rows_a)} vs {len(rows_b)} rows"]
    ok = True
    lines = []
    for j, name in enumerate(header):
        worst, worst_key = 0.0, None
        mismatched = 0
        for a, b in zip(rows_a, rows_b):
            if a[j] == b[j]:
                continue
            x, y = _number(a[j]), _number(b[j])
            if x is None or y is None or math.isnan(x) or math.isnan(y):
                mismatched += 1
            elif abs(x - y) > worst:
                worst, worst_key = abs(x - y), a[0]
        if mismatched:
            ok = False
            lines.append(f"{name}: {mismatched} non-numeric cells differ")
        elif worst > 0.0:
            ok = ok and worst <= TOLERANCE
            lines.append(f"{name}: max abs diff {worst:.3e} (row {worst_key})")
    return ok, lines


_MISSING = object()


def _differing_paths(a, b, path):
    """Key paths at which two parsed JSON values differ; leaves compare as
    JSON text, so a NaN equals a NaN and 1 differs from 1.0."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for key in sorted(set(a) | set(b))
                for p in _differing_paths(a.get(key, _MISSING), b.get(key, _MISSING),
                                          f"{path}.{key}" if path else key)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in _differing_paths(x, y, f"{path}[{i}]")]
    same = a is not _MISSING and b is not _MISSING and json.dumps(a) == json.dumps(b)
    return [] if same else [path]


def compare_manifests(path_a, path_b):
    """``(ok, lines)`` for one pair of manifest.json files, ``wall_times`` dropped."""
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    for manifest in (a, b):
        manifest.pop("wall_times", None)
    diffs = _differing_paths(a, b, "")
    if diffs:
        return False, [f"differs at {', '.join(diffs)}"]
    return True, ["equal apart from wall_times"]


def compare_dirs(dir_a, dir_b):
    """Print a report per CSV and manifest; True when every CSV agrees to
    TOLERANCE and every manifest apart from its wall times."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = sorted({p.relative_to(d) for d in (dir_a, dir_b)
                    for pattern in ("*.csv", "manifest.json") for p in d.rglob(pattern)})
    all_ok = True
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {dir_a if a.is_file() else dir_b}")
            all_ok = False
            continue
        compare = compare_manifests if name.name == "manifest.json" else compare_csv
        ok, lines = compare(a, b)
        all_ok = all_ok and ok
        print(f"{name}: " + "; ".join(lines))
    return all_ok


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    return 0 if compare_dirs(*argv) else 1


if __name__ == "__main__":
    sys.exit(main())
