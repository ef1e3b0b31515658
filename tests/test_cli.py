import json
import math
import shutil
import subprocess
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
)
from gradleaf.errors import (
    BoundViolation,
    ConfigError,
    EndpointViolation,
    LadderInfeasible,
    NoConvergence,
    NewtonDiverged,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(args):
    return main([str(a) for a in args])


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
    # one everything after
    solver = json.loads((p1_run / "manifest.json").read_text())["details"]["solver"]
    assert solver["paper_bound"] == 0.5
    built, calibrated = solver["ladders"]
    assert set(built["kinds"]) == {"backward", "forward_infinite"}
    assert set(calibrated["kinds"]) == {"backward", "forward_infinite",
                                        "forward_finite"}
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


def test_determinism_byte_identical(p1_run, tmp_path):
    out2 = tmp_path / "again"
    code = run_cli(["all", "--config", CONFIGS / "p1_quadratic.json",
                    "--out", out2, "--seed", 3])
    assert code == 0
    for path in sorted(p1_run.glob("*.csv")):
        other = out2 / path.name
        assert other.exists()
        assert path.read_bytes() == other.read_bytes()


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


def test_all_on_quartic_config(tmp_path):
    # end-to-end reference run: >= 6 CSV artifacts, every stage passing
    out = tmp_path / "p2_all"
    code = run_cli(["all", "--config", CONFIGS / "p2_quartic.json",
                    "--out", out, "--seed", 1])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(v == "pass" for v in manifest["stage_statuses"].values())
    csvs = [p for p in manifest["artifact_paths"] if p.endswith(".csv")]
    assert len(csvs) >= 6
    assert manifest["details"]["oracle"]["worst_sup_error"] <= 1e-6
