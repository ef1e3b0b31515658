"""The run's checks against the linearized construction.

A verification run passes only if its checks could have failed.  Here the
Lyapunov-Perron operators solve the linear problem: after the ladder stage,
``LocalModel.h`` and ``LocalModel.dh`` are scaled by 0.  The ladder is built
from the true h, and once it is built the operators are the only users of h
and dh, so the mutant changes the fixed points and nothing else.  The rest of ``gradleaf all`` must then
fail one of its bound checks.

p1_quadratic is left out: h is identically zero there, so the mutant is the
correct code.  On p2, k2 and p3 every check passes the mutant today: their
nonlinear corrections lie below what the C0, C1 and Lipschitz-in-T rows and
the 1e-6 oracle bound resolve.

A second mutant negates the plus part of every boundary term after the
ladder stage, so each fixed point starts from the mirror of its z+.  The
shooting oracle, the only check that integrates the flow from the fixed
points' own boundary data, must catch it on every config.
"""

import pytest

from conftest import reference_problem
from gradleaf import lyapunov_perron
from gradleaf.errors import BoundViolation
from gradleaf.local_model import LocalModel
from gradleaf.pipeline import STAGES, RunState, run_stage

UNRESOLVED = pytest.mark.xfail(
    strict=True, raises=pytest.fail.Exception,
    reason="no check resolves the linearized construction yet "
           "(ROADMAP items 1 and 7)")


@pytest.mark.parametrize("name, error, report", [
    pytest.param("p2_quartic", BoundViolation, "", marks=UNRESOLVED, id="p2"),
    pytest.param("curved_stable", BoundViolation, "report invariance",
                 id="curved_stable"),
    pytest.param("k2_cubic", BoundViolation, "", marks=UNRESOLVED, id="k2"),
    pytest.param("p3_cubic3d", BoundViolation, "", marks=UNRESOLVED, id="p3"),
])
def test_linearized_construction_fails_a_check(name, error, report, tmp_path,
                                               monkeypatch):
    state = RunState(problem=reference_problem(name), out_dir=tmp_path)
    for stage in ("spectral", "ladder"):
        run_stage(stage, state)
    h, dh = LocalModel.h, LocalModel.dh
    monkeypatch.setattr(LocalModel, "h", lambda self, xi: 0.0 * h(self, xi))
    monkeypatch.setattr(LocalModel, "dh", lambda self, xi: 0.0 * dh(self, xi))
    with pytest.raises(error) as caught:
        for stage in STAGES[2:]:
            run_stage(stage, state)
    assert report in str(caught.value)


@pytest.mark.parametrize("name", ["p1_quadratic", "p2_quartic", "curved_stable",
                                  "k2_cubic", "p3_cubic3d"])
def test_flipped_plus_boundary_term_fails_the_oracle(name, tmp_path, monkeypatch):
    state = RunState(problem=reference_problem(name), out_dir=tmp_path)
    for stage in ("spectral", "ladder"):
        run_stage(stage, state)
    boundary_term = lyapunov_perron._boundary_term

    def flipped(model, grid, count, z_minus, z_plus):
        out = boundary_term(model, grid, count, z_minus, z_plus)
        out[..., model.k:] *= -1.0
        return out

    monkeypatch.setattr(lyapunov_perron, "_boundary_term", flipped)
    # no stage before the oracle raises
    with pytest.raises(BoundViolation, match="oracle disagreement"):
        for stage in STAGES[2:]:
            run_stage(stage, state)
    assert state.details["oracle"]["worst_sup_error"] > 1e-6
