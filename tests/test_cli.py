import csv
import gc
import importlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gradleaf import pipeline
from gradleaf.cli import (
    EXIT_BOUND,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_SOLVER,
    build_parser,
    exit_code_for,
    main,
    process_main,
)
from gradleaf.errors import (
    BoundViolation,
    ConfigError,
    EndpointViolation,
    LadderInfeasible,
    NoConvergence,
    NewtonDiverged,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# ``gradleaf.cli`` run as ``__main__`` (what ``python -m gradleaf.cli`` does),
# with an exit hook that prints how many objects are frozen after
# ``sys.exit``
PROCESS = """
import atexit, gc, runpy
atexit.register(lambda: print("frozen", gc.get_freeze_count()))
runpy.run_module("gradleaf.cli", run_name="__main__", alter_sys=True)
"""


def run_cli(args):
    return main([str(a) for a in args])


def run_cli_process(args):
    """Run the CLI in a new process; the exit code and the frozen count."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROCESS, *map(str, args)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    frozen = [int(line.split()[1]) for line in proc.stdout.splitlines()
              if line.startswith("frozen ")]
    assert len(frozen) == 1, proc.stdout + proc.stderr
    return proc.returncode, frozen[0]


def test_ladder_identities_exact(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["ladder", "--config", CONFIGS / "p2_quartic.json",
                    "--out", out]) == 0
    echo = json.loads((out / "manifest.json").read_text())["ladder_echo"]
    assert echo["T1"] == -math.log(echo["varkappa"]) / echo["lambda"]
    assert echo["T0"] == max(echo["T1"], echo["T2"], 1.0)
    assert echo["c1"] == 2.0 * (abs(echo["lambda_min"]) + 1.0)
    assert echo["c_star"] == 2.0 * echo["kappa_star"] \
        * (1.0 / echo["delta"] + 1.0 / echo["lambda"]) + 0.25


def test_bad_config_exit_code(tmp_path):
    cpath = tmp_path / "bad.json"
    cpath.write_text("{not json")
    assert run_cli(["spectral", "--config", cpath, "--out", tmp_path / "o"]) \
        == EXIT_CONFIG
    record = json.loads((tmp_path / "o" / "error.json").read_text())
    assert record["error"] == "config"


def test_missing_critical_point_gradient(tmp_path):
    config = {
        "name": "offcrit",
        "dimension": 2,
        "critical_point": [0.3, 0.0],
        "objective": [[[2, 0], -0.5], [[0, 2], 1.0]],
    }
    cpath = tmp_path / "offcrit.json"
    cpath.write_text(json.dumps(config))
    assert run_cli(["spectral", "--config", cpath, "--out", tmp_path / "o"]) \
        == EXIT_CONFIG


def test_infeasible_ladder_exit_code(tmp_path):
    # the cubic term makes kappa too large at every halving of the trust radius
    config = {
        "name": "infeasible",
        "dimension": 2,
        "critical_point": [0.0, 0.0],
        "objective": [[[2, 0], -0.5], [[0, 2], 1.0], [[3, 0], 100.0]],
    }
    cpath = tmp_path / "inf.json"
    cpath.write_text(json.dumps(config))
    assert run_cli(["ladder", "--config", cpath, "--out", tmp_path / "o"]) \
        == EXIT_CONFIG
    record = json.loads((tmp_path / "o" / "error.json").read_text())
    assert record["error"] == "ladder_infeasible"
    assert "no halving of the trust radius satisfies the smallness inequality" \
        in record["message"]


def _write_config(tmp_path, name, objective):
    cpath = tmp_path / f"{name}.json"
    cpath.write_text(json.dumps({"name": name, "dimension": 2,
                                 "critical_point": [0.0, 0.0],
                                 "objective": objective}))
    return cpath


def test_stiff_unstable_direction_shoots_at_positive_horizons(tmp_path):
    # lambda_min = -10 caps the oracle's base horizon at ln(1e6)/10 = 1.38,
    # below T0 = 12.1: the capped horizons spread over half of it
    cpath = _write_config(tmp_path, "stiff_unstable",
                          [[[2, 0], -5.0], [[4, 0], 1.0], [[0, 2], 0.5]])
    out = tmp_path / "o"
    assert run_cli(["all", "--config", cpath, "--out", out]) == 0
    with open(out / "oracle_comparison.csv", newline="") as fh:
        horizons = sorted({float(row["T"]) for row in csv.DictReader(fh)})
    t_cap = math.log(1e6) / 10.0
    assert horizons == pytest.approx([0.5 * t_cap, t_cap], rel=1e-12)


def test_stiff_stable_direction_exits_ladder_infeasible(tmp_path):
    # the stable graph's node nearest the origin already lies above
    # c + varsigma, so no plus ball stays below that level
    cpath = _write_config(tmp_path, "stiff_stable",
                          [[[2, 0], -0.5], [[0, 2], 10.0], [[2, 2], 0.25]])
    out = tmp_path / "o"
    assert run_cli(["all", "--config", cpath, "--out", out]) == EXIT_CONFIG
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ladder_infeasible"
    assert "c + varsigma" in record["message"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stage_statuses"]["manifolds"] == "error"


#: an address-space cap for a run whose decay tables alone would need 4 GB
SMALL_GAP_ADDRESS_SPACE = 1 << 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (SMALL_GAP_ADDRESS_SPACE, SMALL_GAP_ADDRESS_SPACE))


def _run_capped(cpath, out):
    """``gradleaf all`` on ``cpath`` in a process whose address space is
    capped, so that a missing budget check fails the run instead of the host;
    the finished process."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gradleaf.cli", "all", "--config", str(cpath),
         "--out", str(out)], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path), preexec_fn=_cap_address_space)


def test_small_spectral_gap_exits_config_with_manifest(tmp_path):
    # gap 0.01: the truncation horizon 40/lambda = 8000 needs 16000 panels,
    # 2 GB per decay table
    cpath = _write_config(tmp_path, "small_gap",
                          [[[2, 0], -0.5], [[0, 2], 0.005], [[2, 2], 0.25]])
    out = tmp_path / "o"
    proc = _run_capped(cpath, out)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ladder_infeasible"
    assert "[-8000, 0] needs 16000 panels" in record["message"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"]["code"] == "ladder_infeasible"
    assert manifest["stage_statuses"] == {"spectral": "pass", "ladder": "pass",
                                          "manifolds": "error"}


def test_tiny_spectral_gap_exits_config_before_any_grid(tmp_path):
    # Hessian diag(-2e-300, 2e-300) passes the spectral and ladder stages;
    # its truncation horizon needs about 8e301 panels, which the model
    # refuses before it builds any grid array
    cpath = _write_config(tmp_path, "tiny_gap", [[[2, 0], -1e-300], [[0, 2], 1e-300]])
    out = tmp_path / "o"
    proc = _run_capped(cpath, out)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ladder_infeasible"
    assert "panels" in record["message"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stage_statuses"] == {"spectral": "pass", "ladder": "pass",
                                          "manifolds": "error"}


def test_subnormal_spectral_gap_exits_config_in_the_ladder(tmp_path):
    # Hessian diag(-1e-323, 1e-323): the gap is subnormal, so delta rounds
    # to 0, which the ladder refuses before any rate divides by it
    cpath = _write_config(tmp_path, "subnormal_gap", [[[2, 0], -5e-324], [[0, 2], 5e-324]])
    out = tmp_path / "o"
    assert run_cli(["all", "--config", cpath, "--out", out]) == EXIT_CONFIG
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ladder_infeasible"
    assert record["message"] == ("spectral gap 9.88e-324 leaves lambda = 4.94e-324 and "
                                 "delta = 0; the ladder needs both positive")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stage_statuses"] == {"spectral": "pass", "ladder": "error"}


def test_config_not_utf8_json_exits_config(tmp_path):
    config = {"name": "caf\u00e9", "dimension": 2, "critical_point": [0.0, 0.0],
              "objective": [[[2, 0], -0.5], [[0, 2], 1.0]]}
    text = json.dumps(config, ensure_ascii=False)
    # a JSON integer past Python's digit limit fails to parse the same way
    digits = text.replace('"dimension": 2', '"dimension": 2' + "0" * 5000)
    for name, data in (("bom", b"\xff\xfe" + text.encode()),
                       ("latin1", text.encode("latin-1")),
                       ("digits", digits.encode())):
        cpath = tmp_path / f"{name}.json"
        cpath.write_bytes(data)
        out = tmp_path / name
        assert run_cli(["spectral", "--config", cpath, "--out", out]) == EXIT_CONFIG
        record = json.loads((out / "error.json").read_text())
        assert record["type"] == "ConfigError"
        assert record["error"] == "config"
        assert str(cpath) in record["message"]


def test_zero_hessian_fails_the_spectral_stage(tmp_path):
    # a cubic has a zero Hessian at the origin: no eigenvalue is nonzero
    cpath = tmp_path / "flat.json"
    cpath.write_text(json.dumps({"dimension": 2, "critical_point": [0.0, 0.0],
                                 "objective": [[[3, 0], 1.0]]}))
    out = tmp_path / "o"
    assert run_cli(["spectral", "--config", cpath, "--out", out]) == EXIT_CONFIG
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "degenerate_critical_point"
    assert not (out / "spectral.csv").exists()


def test_out_that_is_a_file_exits_config(tmp_path, capsys):
    # the record goes to stderr only: there is no directory to hold it
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    for out in (taken, taken / "sub"):
        assert run_cli(["spectral", "--config", CONFIGS / "p1_quadratic.json",
                        "--out", out]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config" and record["type"] == "ConfigError"
        assert record["exit_code"] == EXIT_CONFIG
        assert record["message"].startswith(
            f"cannot make the output directory {out}: ")
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("args, message", [
    (["bogus", "--config", CONFIGS / "p1_quadratic.json"],
     "argument subcommand: invalid choice: 'bogus'"),
    (["spectral"], "the following arguments are required: --config"),
    (["all", "--config", CONFIGS / "p1_quadratic.json", "--seed", -5],
     "argument --seed: must not be negative: -5"),
], ids=["unknown_subcommand", "missing_config", "negative_seed"])
def test_usage_error_exits_config_before_any_stage(tmp_path, capsys, args, message):
    # exit 2 is a failed bound, so argparse's usage errors exit 3
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli(args + ["--out", out])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage: gradleaf ")
    assert f"gradleaf: error: {message}" in err
    assert not out.exists()


def test_exit_code_mapping():
    assert exit_code_for(ConfigError("x")) == EXIT_CONFIG
    assert exit_code_for(LadderInfeasible("x")) == EXIT_CONFIG
    assert exit_code_for(NoConvergence("x")) == EXIT_SOLVER
    assert exit_code_for(NewtonDiverged("x")) == EXIT_SOLVER
    assert exit_code_for(BoundViolation("x")) == EXIT_BOUND
    assert exit_code_for(EndpointViolation("x")) == EXIT_BOUND
    # an internal guard's ValueError is a bug, not a config error
    assert exit_code_for(ValueError("x")) == EXIT_INTERNAL
    assert exit_code_for(KeyError("x")) == EXIT_INTERNAL
    assert exit_code_for(ZeroDivisionError("x")) == EXIT_INTERNAL


def test_subcommands_are_the_stages_in_run_order_and_all():
    # the CLI names no stage of its own: its choices come from the pipeline
    (action,) = [a for a in build_parser()._actions if a.dest == "subcommand"]
    assert tuple(action.choices) == ("spectral", "ladder", "manifolds",
                                     "lambda", "foliate", "oracle", "all")
    assert tuple(action.choices)[:-1] == pipeline.STAGES
    assert action.help == "pipeline stage to run ('all' runs every stage)"


def test_internal_value_error_exits_internal(tmp_path, monkeypatch):
    # an internal guard's ValueError inside a stage is reported as a bug
    def broken(state):
        raise ValueError("internal guard")
    monkeypatch.setitem(pipeline._STAGE_FUNCS, "spectral", broken)
    out = tmp_path / "o"
    assert run_cli(["spectral", "--config", CONFIGS / "p1_quadratic.json",
                    "--out", out]) == EXIT_INTERNAL
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "ValueError" and record["exit_code"] == EXIT_INTERNAL
    assert record["message"] == "internal guard"


def test_unreadable_config_exit_code(tmp_path):
    # a missing file, a config that is not an object, any value of the
    # wrong type or any key the run does not read (``ladder_overrides``) is
    # the config's fault, not an internal error
    base = {"dimension": 2, "critical_point": [0.0, 0.0],
            "objective": [[[2, 0], -0.5], [[0, 2], 1.0]]}
    malformed = [[1, 2], {"objective": 5}, {"objective": [[[2, 0]]]},
                 {"dimension": [2]}, {"critical_point": {"x": 0.0}},
                 {"trust_radius": [1]}, {"ladder_overrides": 5},
                 {"ladder_overrides": {"lambda": [0.5]}}, {"c21": "false"},
                 {"dimension": 2.7},
                 {"objective": [[[2.5, 0], -0.5], [[0, 2], 1.0]]},
                 # booleans and numeric strings are not numbers
                 {"trust_radius": True}, {"trust_radius": "1.0"},
                 {"critical_point": ["0", False]},
                 {"ladder_overrides": {"lambda": "0.5"}},
                 {"objective": [[[2, 0], "-0.5"], [[0, 2], 1.0]]},
                 {"objective": [[[2, 0], True], [[0, 2], 1.0]]},
                 # no variables; a NaN gradient at the critical point (x y^2
                 # is 0 * inf there), once with an inf Hessian as well
                 {"dimension": 0, "critical_point": [], "objective": []},
                 {"critical_point": [1e160, 1e160],
                  "objective": [[[2, 0], -0.5], [[0, 2], 1.0], [[2, 2], 1e300],
                                [[3, 1], -1e300]]},
                 {"critical_point": [0.0, 1e160],
                  "objective": [[[2, 0], -0.5], [[0, 2], 1.0], [[2, 2], 1e300]]}]
    configs = [tmp_path / "missing.json"]
    for i, change in enumerate(malformed):
        configs.append(tmp_path / f"malformed_{i}.json")
        configs[-1].write_text(json.dumps(
            change if isinstance(change, list) else {**base, **change}))
    for config in configs:
        with np.errstate(all="ignore"):
            code = run_cli(["spectral", "--config", config, "--out", tmp_path / "o"])
        assert code == EXIT_CONFIG, config.name
        record = json.loads((tmp_path / "o" / "error.json").read_text())
        assert record["error"] == "config"


@pytest.fixture(scope="module")
def p1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_p1")
    code = run_cli(["all", "--config", CONFIGS / "p1_quadratic.json",
                    "--out", out, "--seed", 3])
    assert code == 0
    return out


def test_all_stages_pass(p1_run):
    manifest = json.loads((p1_run / "manifest.json").read_text())
    assert all(v == "pass" for v in manifest["stage_statuses"].values())
    assert len(manifest["artifact_paths"]) >= 6


def test_manifest_lists_every_file(p1_run):
    manifest = json.loads((p1_run / "manifest.json").read_text())
    on_disk = {p.name for p in p1_run.iterdir()}
    listed = set(manifest["artifact_paths"]) | {"manifest.json"}
    assert on_disk == listed


def test_manifest_counts_solver_work(p1_run):
    # the batched Picard loop counts its own work per ladder and operator
    # kind: the built ladder solves the two infinite graphs, the calibrated
    # one everything after, the C1 check's linearized equations included
    solver = json.loads((p1_run / "manifest.json").read_text())["details"]["solver"]
    assert solver["paper_bound"] == 0.5
    built, calibrated = solver["ladders"]
    assert set(built["kinds"]) == {"backward", "forward_infinite"}
    assert set(calibrated["kinds"]) == {"backward", "forward_infinite",
                                        "forward_finite", "linearized"}
    for ladder in (built, calibrated):
        assert 0.0 <= ladder["contraction_bound"] <= 0.5
        for entry in ladder["kinds"].values():
            assert entry["columns"] >= entry["batches"] >= 1
            assert entry["columns"] <= entry["iterations_sum"]
            assert entry["iterations_max"] >= 1
            # linear flow: the first image is the fixed point, so no
            # contraction ratio is ever formed
            assert entry["worst_ratio"] is None
    # the 13 nodes of the unstable graph, several to a block
    assert built["kinds"]["backward"]["columns"] == 13
    assert built["kinds"]["backward"]["batches"] < 13
    # one derivative per fixed point, whose directions solve as one batch:
    # p1's plus subspace has one dimension
    linearized = calibrated["kinds"]["linearized"]
    assert linearized["columns"] == linearized["batches"] == 6


def test_manifest_counts_one_linearized_batch_per_fixed_point(tmp_path):
    # p3's plus subspace has two dimensions: the C1 check's 6 fixed points
    # solve their 12 derivatives in 6 batches
    assert run_cli(["lambda", "--config", CONFIGS / "p3_cubic3d.json",
                    "--out", tmp_path]) == 0
    solver = json.loads((tmp_path / "manifest.json").read_text())["details"]["solver"]
    linearized = solver["ladders"][1]["kinds"]["linearized"]
    assert (linearized["columns"], linearized["batches"]) == (12, 6)


@pytest.mark.parametrize("config", ["p2_quartic", "p3_cubic3d"])
def test_manifest_counts_every_picard_batch(tmp_path, monkeypatch, config):
    # every call of the Picard loop is one batch of some ladder and kind
    from gradleaf import lyapunov_perron as lp

    picard, calls = lp._picard, []

    def counted(operator, *args, **kwargs):
        calls.append(operator.kind)
        return picard(operator, *args, **kwargs)

    monkeypatch.setattr(lp, "_picard", counted)
    assert run_cli(["lambda", "--config", CONFIGS / f"{config}.json",
                    "--out", tmp_path]) == 0
    solver = json.loads((tmp_path / "manifest.json").read_text())["details"]["solver"]
    batches = sum(entry["batches"] for ladder in solver["ladders"]
                  for entry in ladder["kinds"].values())
    assert len(calls) == batches


@pytest.fixture(scope="module")
def p2_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_p2")
    code = run_cli(["all", "--config", CONFIGS / "p2_quartic.json",
                    "--out", out, "--seed", 1])
    assert code == 0
    return out


def test_process_freezes_the_heap_before_it_exits(tmp_path):
    code, frozen = run_cli_process(
        ["spectral", "--config", CONFIGS / "p1_quadratic.json",
         "--out", tmp_path / "o"])
    assert code == 0
    assert frozen > 0


def test_console_script_is_the_process_entry():
    # the installed ``gradleaf`` command exits as ``python -m gradleaf.cli``
    tomllib = pytest.importorskip("tomllib")  # Python 3.11
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["gradleaf"].partition(":")
    assert getattr(importlib.import_module(module), name) is process_main


def test_in_process_main_freezes_nothing(tmp_path):
    before = gc.get_freeze_count()
    assert run_cli(["spectral", "--config", CONFIGS / "p1_quadratic.json",
                    "--out", tmp_path / "o"]) == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("config, seed, fixture", [
    ("p1_quadratic.json", 3, "p1_run"), ("p2_quartic.json", 1, "p2_run")])
def test_process_writes_the_in_process_csvs(tmp_path, request, config, seed,
                                            fixture):
    out = tmp_path / "process"
    code, frozen = run_cli_process(["all", "--config", CONFIGS / config,
                                    "--out", out, "--seed", seed])
    assert code == 0 and frozen > 0
    in_process = request.getfixturevalue(fixture)
    assert csv_bytes(out) == csv_bytes(in_process)


def csv_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def test_determinism_byte_identical(p1_run, tmp_path):
    out2 = tmp_path / "again"
    code = run_cli(["all", "--config", CONFIGS / "p1_quadratic.json",
                    "--out", out2, "--seed", 3])
    assert code == 0
    assert csv_bytes(out2) == csv_bytes(p1_run)


def test_ladder_does_not_depend_on_seed(tmp_path):
    # p2, since p1's kappa is 0 at every radius whatever the bounds
    outs = [tmp_path / f"seed{seed}" for seed in (0, 7)]
    for seed, out in zip((0, 7), outs):
        assert run_cli(["ladder", "--config", CONFIGS / "p2_quartic.json",
                        "--out", out, "--seed", seed]) == 0
    assert (outs[0] / "ladder.csv").read_bytes() == (outs[1] / "ladder.csv").read_bytes()


def test_stage_flag_restricts(tmp_path):
    out = tmp_path / "stage"
    code = run_cli(["ladder", "--config", CONFIGS / "p1_quadratic.json",
                    "--out", out])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["stage_statuses"]) == {"spectral", "ladder"}


def test_console_entrypoint_runs(tmp_path):
    exe = shutil.which("gradleaf")
    if exe is None:
        pytest.skip("console script not installed")
    out = tmp_path / "exe"
    proc = subprocess.run(
        [exe, "spectral", "--config", str(CONFIGS / "p1_quadratic.json"),
         "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "spectral.csv").exists()


def test_csv_float_format(p1_run):
    text = (p1_run / "ladder.csv").read_text().splitlines()
    assert text[0] == "constant,value"
    # 17 significant digits, scientific notation (exact double roundtrip)
    value = text[1].split(",")[1]
    mantissa = value.split("e")[0]
    assert len(mantissa.replace("-", "").replace(".", "")) == 17
    assert float(value) == float(f"{float(value):.16e}")


def test_all_on_quartic_config(p2_run):
    # end-to-end reference run: >= 6 CSV artifacts, every stage passing
    manifest = json.loads((p2_run / "manifest.json").read_text())
    assert all(v == "pass" for v in manifest["stage_statuses"].values())
    csvs = [p for p in manifest["artifact_paths"] if p.endswith(".csv")]
    assert len(csvs) >= 6
    assert manifest["details"]["oracle"]["worst_sup_error"] <= 1e-6
