import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _write(directory, name, text):
    path = directory / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_identical_and_rounding_level_outputs_pass(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        _write(d, "report.csv", "check,gap\nc0,1.5e-3\n")
    _write(a, "cfg/pair.csv", "x1,f\n0.25,1.0\n0.5,2.0\n")
    _write(b, "cfg/pair.csv", "x1,f\n0.25,1.000000000000001\n0.5,2.0\n")
    assert compare_outputs.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "report.csv: identical" in out
    assert "cfg/pair.csv: f: max abs diff 1.110e-15" in out


def test_differences_fail(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "report.csv", "check,gap\nc0,1.5e-3\nc1,2.0\n")
    _write(b, "report.csv", "check,gap\nc0,1.6e-3\nc2,2.0\n")
    _write(a, "only_a.csv", "x\n1\n")
    assert compare_outputs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "report.csv: check: 1 non-numeric cells differ; gap: max abs diff 1.000e-04" in out
    assert "only_a.csv: only in" in out
    _write(b, "only_a.csv", "y\n1\n")
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert "only_a.csv: headers differ" in capsys.readouterr().out


def test_manifests_equal_apart_from_wall_times_pass(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "cfg/manifest.json",
           '{"details": {"gap": NaN, "rows": [1, 2]}, "wall_times": {"all": 0.5}}')
    _write(b, "cfg/manifest.json",
           '{"details": {"gap": NaN, "rows": [1, 2]}, "wall_times": {"all": 0.7}}')
    assert compare_outputs.main([str(a), str(b)]) == 0
    assert "cfg/manifest.json: equal apart from wall_times" in capsys.readouterr().out


def test_manifest_differences_fail(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "cfg/manifest.json", '{"details": {"gap": 1.0, "rows": [1, 2]}, "seed": 0}')
    _write(b, "cfg/manifest.json", '{"details": {"gap": 1, "rows": [1, 3]}, "tol": 0.1}')
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert ("cfg/manifest.json: differs at details.gap: 1.0 -> 1; "
            "details.rows[1]: 2 -> 3; seed: 0 -> missing; tol: missing -> 0.1"
            in capsys.readouterr().out)
    (b / "cfg" / "manifest.json").unlink()
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert "cfg/manifest.json: only in" in capsys.readouterr().out


def test_numeric_difference_names_its_worst_row(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "ladder.csv", "constant,value\nc1,2.0\nc_star,19.8\nkappa_rho,1.0e-3\n")
    _write(b, "ladder.csv", "constant,value\nc1,2.0\nc_star,31.8\nkappa_rho,1.5e-3\n")
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert "ladder.csv: value: max abs diff 1.200e+01 (row c_star)" in capsys.readouterr().out
