from collections import Counter

import numpy as np
import pytest

from conftest import reference_problem
from gradleaf import flow, oracle, pipeline
from gradleaf import lyapunov_perron as lp
from gradleaf.errors import BlowUp, NewtonDiverged
from gradleaf.oracle import mixed_bvp_oracle
from references import scipy_trajectory, stable_point_oracle


def test_linear_shooting_exact(p1, monkeypatch):
    # closed form: w = exp(T lambda_1) z- reproduces the flat graph value
    T = 6.0
    zm = np.array([0.1])
    zp = np.array([0.05])
    monkeypatch.setattr(oracle, "NEWTON_TOL", 1e-10)
    [(traj, _)] = mixed_bvp_oracle(p1.model, [(T, zm, zp)])
    start = p1.model.to_local(traj.states[0])
    assert start[0] == pytest.approx(0.1 * np.exp(-T), rel=1e-8)
    end = p1.model.to_local(traj.states[-1])
    assert end[0] == pytest.approx(0.1, abs=1e-10)


def test_zero_zplus_recovers_backward_orbit(p2):
    T = p2.ladder.T0
    zm = p2.sphere_point()
    orbit = p2.orbit(zm, t_need=T)
    [(traj, _)] = mixed_bvp_oracle(p2.model, [(T, zm, np.zeros(1))])
    ref = orbit.curve.evaluate(traj.times - T)
    got = p2.model.to_local(traj.states)
    assert np.max(np.linalg.norm(got - ref, axis=1)) <= 1e-8


def test_oracle_matches_fixed_point_curve(p2):
    T = p2.ladder.T0 + 1.0
    zm = p2.sphere_point(1)
    zp = np.array([0.45 * p2.ladder.R])
    orbit = p2.orbit(zm, t_need=T)
    res, _ = lp.solve_mixed(p2.model, p2.ladder, T, zm, zp, orbit)
    [(traj, _)] = mixed_bvp_oracle(p2.model, [(T, zm, zp)])
    states = p2.model.to_local(traj.states)
    assert np.max(np.linalg.norm(states - res.curve.evaluate(traj.times), axis=1)) <= 1e-6


def test_stable_point_quadratic_zero(p1):
    solution, bracket_width = stable_point_oracle(p1.model, p1.ladder,
                                                  np.array([0.07]), tol=1e-9)
    assert abs(solution[0]) <= 1e-9
    assert bracket_width <= 1e-9


def test_stable_point_at_origin(p1):
    solution, _ = stable_point_oracle(p1.model, p1.ladder, np.zeros(1), tol=1e-9)
    assert abs(solution[0]) <= 1e-9


def test_stable_point_curved_matches_graph(curved):
    y = curved.graph_g.axes[0][-3]
    solution, _ = stable_point_oracle(curved.model, curved.ladder, np.array([y]),
                                      tol=1e-8)
    lp_val = curved.graph_g.evaluate(np.array([y]))[0]
    assert abs(solution[0] - lp_val) <= 1e-6


def test_oracle_uses_forward_time_only():
    import inspect

    from gradleaf import oracle

    source = inspect.getsource(oracle)
    # the module integrates through gradleaf's lockstep solve_ivp alone,
    # whose durations are never negative
    assert "from .flow import solve_ivp" in source
    assert "integrate_forward" not in source and "scipy" not in source


def test_unstable_graph_via_negated_problem():
    # duality: the unstable manifold of f is the stable manifold of -f, so
    # the forward-only bisection oracle on -f validates the unstable graph
    from gradleaf.local_model import LocalModel, build_ladder, lipschitz_modulus
    from gradleaf.polynomials import Polynomial
    from gradleaf.problems import GradientProblem
    from gradleaf.spectral import split

    pairs = [[[2, 0], -0.5], [[0, 2], 1.0], [[2, 1], 0.1]]
    prob = GradientProblem("u_curved", 2, Polynomial.from_pairs(2, pairs),
                           np.zeros(2), 1.0)
    neg = GradientProblem("u_curved_neg", 2, Polynomial.from_pairs(
        2, [[a, -c] for a, c in pairs]), np.zeros(2), 1.0)

    sp = split(prob.hess(prob.critical_point))
    model = LocalModel(prob, sp)
    modulus, kstar = lipschitz_modulus(model)
    ladder = build_ladder(sp, modulus, kstar, 1.0)
    graph_f = lp.graph_F_inf(model, ladder)

    sp_n = split(neg.hess(neg.critical_point))
    model_n = LocalModel(neg, sp_n)
    modulus_n, kstar_n = lipschitz_modulus(model_n)
    ladder_n = build_ladder(sp_n, modulus_n, kstar_n, 1.0)
    assert sp_n.morse_index == 1

    x = graph_f.axes[0][-1]
    val = graph_f.evaluate(np.array([x]))[0]
    # eigen frames of f and -f may differ by axis order/sign; map through
    # ambient coordinates
    point_amb = model.to_ambient(np.array([x, val]))
    z_plus_neg = np.array([model_n.to_local(point_amb)[1]])
    solution, _ = stable_point_oracle(model_n, ladder_n, z_plus_neg, tol=1e-9)
    shot_amb = model_n.to_ambient(solution)
    assert abs(shot_amb[1] - point_amb[1]) <= 1e-6
    # curvature against the invariance asymptotics y = -(c/4) x^2
    assert val == pytest.approx(-0.1 / 4.0 * x * x, rel=0.05)


# -- the lockstep oracle against its serial form --------------------------

def loop_oracle(model, T, z_minus, z_plus, tol):
    """One query's damped Newton iteration, one scipy DOP853 run per shot:
    the oracle as it ran before its shots were pooled, on an integrator
    that shares no code with gradleaf's.  Returns the trajectory, the
    solution and the endpoint residual."""
    k = model.k
    scale = np.exp(T * model.eigenvalues[:k])

    def shoot(u):
        start_local = np.concatenate([scale * u, z_plus])
        traj = scipy_trajectory(model.problem, model.to_ambient(start_local), T,
                                oracle.ORACLE_RTOL, oracle.ORACLE_ATOL)
        return model.to_local(traj.y[:, -1])[:k] - z_minus, traj

    u = z_minus.copy()
    resid, traj = shoot(u)
    best = (np.linalg.norm(resid), u, traj)
    fd = max(1e-9, 1e-7 * float(np.linalg.norm(u)))
    for _ in range(oracle.NEWTON_MAX_ITER):
        if np.linalg.norm(resid) <= tol:
            break
        J = np.empty((k, k))
        for j in range(k):
            du = np.zeros(k)
            du[j] = fd
            J[:, j] = (shoot(u + du)[0] - resid) / fd
        step = np.linalg.solve(J, resid)
        damping = 1.0
        for _ in range(8):
            resid_new, traj_new = shoot(u - damping * step)
            if np.linalg.norm(resid_new) < np.linalg.norm(resid):
                break
            damping *= 0.5
        else:
            raise NewtonDiverged("damped Newton made no progress on the shot")
        u = u - damping * step
        resid, traj = resid_new, traj_new
        if np.linalg.norm(resid) < best[0]:
            best = (np.linalg.norm(resid), u, traj)
    norm, u, traj = best
    return traj, np.concatenate([scale * u, z_plus]), norm


def _ready_state(name, tmp_path):
    """A pipeline run of ``configs/<name>.json`` through the stages the
    oracle needs."""
    state = pipeline.RunState(problem=reference_problem(name), out_dir=tmp_path)
    for stage in ("spectral", "ladder", "manifolds"):
        pipeline.run_stage(stage, state)
    return state


@pytest.mark.parametrize("name", [
    pytest.param("p1_quadratic", id="quadratic_saddle"),
    pytest.param("p2_quartic", id="quartic_saddle"),
    pytest.param("p3_cubic3d", id="cubic_saddle_3d"),
    pytest.param("curved_stable", id="curved_stable_saddle"),
    pytest.param("k2_cubic", id="index_two_saddle"),
])
def test_lockstep_matches_serial_loop(name, tmp_path):
    state = _ready_state(name, tmp_path)
    groups = pipeline.oracle_queries(state)
    queries = [query for group in groups for query in group]
    tol = oracle.NEWTON_TOL
    shot = mixed_bvp_oracle(state.model, queries)
    assert len(shot) == len(queries) == 8
    k = state.model.k
    for (T, zm, zp), (traj, residual) in zip(queries, shot):
        _, solution, norm = loop_oracle(state.model, T, zm, zp, tol)
        start = state.model.to_local(traj.states[0])
        assert np.max(np.abs(start - solution)) <= 1e-12
        assert norm <= tol and residual <= tol
        end = state.model.to_local(traj.states[-1])[:k]
        assert np.linalg.norm(end - zm) == residual
        assert traj.times[-1] == T


def _scripted_batch(model, scripts):
    """Stand-in for ``flow.solve_ivp``: a row of horizon T ends
    where its minus residual is ``scripts[T](u)`` (queries with z- = 0), or
    raises what ``scripts[T]`` is when that is an exception."""
    k = model.k

    def batch(problem, starts, duration, rtol, atol, stop_below_level,
              keep_step_ends=None):
        ends = []
        for start, T in zip(starts, duration):
            script = scripts[T]
            if isinstance(script, Exception):
                raise script
            u = model.to_local(start)[:k] / np.exp(T * model.eigenvalues[:k])
            ends.append(model.to_ambient(np.concatenate(
                [script(u), np.zeros(model.n - k)])))
        return flow.ForwardRun(np.array(ends), np.zeros(len(starts), dtype=bool),
                               [None] * len(starts), 0)

    return batch


def _no_progress(u):
    # the Jacobian is 1, and every damped step backwards raises |residual|
    return np.array([1.0 + abs(u[0])])


def _flat(u):
    return np.array([1.0])


@pytest.mark.parametrize("scripts, error", [
    # the later query's singular Jacobian shows in the first round, before
    # the earlier query runs out of damping levels; solved one after the
    # other, the earlier query raises first
    ({1.0: _no_progress, 2.0: _flat}, "no progress"),
    ({1.0: _flat, 2.0: _no_progress}, "singular shooting Jacobian"),
])
def test_failure_is_the_serial_one(p1, monkeypatch, scripts, error):
    monkeypatch.setattr(oracle, "solve_ivp", _scripted_batch(p1.model, scripts))
    queries = [(T, np.zeros(1), np.zeros(1)) for T in scripts]
    with pytest.raises(NewtonDiverged, match=error):
        mixed_bvp_oracle(p1.model, queries)


def test_blow_up_in_a_pooled_batch_propagates(p1, monkeypatch):
    # a BlowUp carries no query, so it propagates from the batch at once,
    # even where the serial loop would first have stopped at the earlier
    # query's NewtonDiverged
    scripts = {1.0: _no_progress, 2.0: BlowUp("state norm exceeded 1000.0")}
    monkeypatch.setattr(oracle, "solve_ivp", _scripted_batch(p1.model, scripts))
    queries = [(T, np.zeros(1), np.zeros(1)) for T in scripts]
    with pytest.raises(BlowUp):
        mixed_bvp_oracle(p1.model, queries)


def test_p2_oracle_stage_makes_two_batch_calls(tmp_path, monkeypatch):
    state = _ready_state("p2_quartic", tmp_path)
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    # the oracle's binding and the one integrate_forward reaches count alike
    counted(oracle, "solve_ivp")
    counted(flow, "solve_ivp")
    # the oracle module imports no one-trajectory wrapper at all
    assert not hasattr(oracle, "integrate_forward")
    for module in (pipeline, flow):
        counted(module, "integrate_forward")
    pipeline.run_stage("oracle", state)
    assert state.statuses["oracle"] == "pass"
    # the base shots with the first probes, then one damping level
    assert calls == {"solve_ivp": 2}
