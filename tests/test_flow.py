from types import SimpleNamespace

import numpy as np
import pytest

from gradleaf import reporting
from gradleaf.errors import BlowUp, LevelNotReached
from gradleaf.flow import descending_disk, integrate_forward, solve_ivp
from references import scipy_trajectory


def backward(setup, q, t):
    """The point at time ``-t`` of the orbit through ``q`` on the unstable
    manifold, read off the emanating-orbit fixed point: no backward Cauchy
    problem is solved."""
    return setup.orbit(q[: setup.model.k]).curve.evaluate(-t)


def test_linear_flow_closed_form(p1, trajectory_tol):
    start = np.array([0.05, 0.1])
    t = 1.3
    trajectory_tol(1e-12, 1e-14)
    traj = integrate_forward(p1.problem, start, t)
    expected = np.array([0.05 * np.exp(t), 0.1 * np.exp(-2 * t)])
    assert np.allclose(traj.states[-1], expected, atol=1e-11)


def test_constant_at_critical_point(p2):
    traj = integrate_forward(p2.problem, np.zeros(2), 2.0)
    assert np.allclose(traj.states, 0.0)


def test_terminal_state_matches_finer_tolerance(p2, trajectory_tol):
    # oracle: the same integrator at tolerance / 100
    start = np.array([0.1, 0.1])
    trajectory_tol(1e-8, 1e-10)
    a = integrate_forward(p2.problem, start, 1.0)
    trajectory_tol(1e-10, 1e-12)
    b = integrate_forward(p2.problem, start, 1.0)
    assert np.linalg.norm(a.states[-1] - b.states[-1]) < 1e-8


def test_f_monotone_along_flow(p2):
    traj = integrate_forward(p2.problem, np.array([0.02, 0.1]), 4.0)
    assert np.max(np.diff(p2.problem.f(traj.states))) <= 1e-13


def test_f_derivative_is_gradient_norm(p2, trajectory_tol):
    # d/dt f(phi_t p) = -|grad f|^2, checked by a quotient at the start
    p = np.array([0.03, 0.08])
    h = 1e-6
    trajectory_tol(1e-12, 1e-14)
    traj = integrate_forward(p2.problem, p, h)
    quotient = (p2.problem.f(traj.states[-1]) - p2.problem.f(p)) / h
    assert quotient == pytest.approx(-np.linalg.norm(p2.problem.grad(p)) ** 2,
                                     rel=1e-4)


@pytest.mark.parametrize("name", ["p2", "p3"])
def test_batch_terminal_states_match_single_trajectories(name, request):
    # each row steps with its own error control, so it lands where a lone
    # scipy DOP853 run at the same tolerances lands
    setup = request.getfixturevalue(name)
    n = setup.problem.dimension
    starts = np.random.default_rng(4).uniform(-0.3, 0.3, size=(9, n))
    starts[0] = 0.0
    for duration in (0.7, 2.5):
        run = solve_ivp(setup.problem, starts, duration, 1e-10, 1e-12, -np.inf)
        assert not run.stopped.any()
        for start, end in zip(starts, run.terminal):
            single = scipy_trajectory(setup.problem, start, duration, 1e-10, 1e-12)
            assert np.max(np.abs(end - single.y[:, -1])) <= 1e-9


def test_batch_rows_with_own_durations_match_lone_runs(p2):
    # BLAS sums a stage block in an order that depends on its width, so a
    # row's bits depend on the other rows of its batch, and so do step sizes
    # whose error estimates sit at rounding level.  Each row of a batch of
    # mixed horizons still lands within rounding of its one-row batch and of
    # scipy's DOP853, and a kept row's step ends lie on scipy's trajectory
    starts = np.random.default_rng(12).uniform(-0.3, 0.3, size=(17, 2))
    durations = np.where(np.arange(17) % 3 == 0, 2.5, 0.7)
    keep = np.arange(17) % 4 == 1
    run = solve_ivp(p2.problem, starts, durations, 1e-12, 1e-15, -np.inf,
                    keep_step_ends=keep)
    assert not run.stopped.any()
    for start, T, end, traj, kept in zip(starts, durations, run.terminal,
                                         run.step_ends, keep):
        alone = solve_ivp(p2.problem, start[None], T, 1e-12, 1e-15, -np.inf)
        single = scipy_trajectory(p2.problem, start, T, 1e-12, 1e-15)
        assert np.max(np.abs(end - alone.terminal[0])) <= 1e-14
        assert np.max(np.abs(end - single.y[:, -1])) <= 1e-14
        assert (traj is not None) == kept
        if kept:
            assert traj.times[0] == 0.0 and traj.times[-1] == T
            assert np.array_equal(traj.states[0], start)
            assert np.array_equal(traj.states[-1], end)
            assert np.max(np.abs(traj.states - single.sol(traj.times).T)) <= 1e-14


def test_batch_stops_below_level(p2):
    starts = np.array([[0.05, 0.0], [0.2, 0.0], [0.0, 0.1]])
    level = -0.01
    run = solve_ivp(p2.problem, starts, 3.0, 1e-10, 1e-12, stop_below_level=level)
    f_end = p2.problem.f(run.terminal)
    assert run.stopped.tolist() == [True, True, False]
    assert np.all(f_end[run.stopped] < level)
    # the unstopped row ran the full duration
    single = scipy_trajectory(p2.problem, starts[2], 3.0, 1e-10, 1e-12)
    assert np.max(np.abs(run.terminal[2] - single.y[:, -1])) <= 1e-9


@pytest.mark.parametrize("starts", [[[0.1, 0.0], [0.0, 0.2]], [[np.nan, 0.0]]])
def test_batch_step_failure_raises(starts):
    # the right-hand side turns NaN beyond |x| = 0.5 (or at once, from a NaN
    # start), so steps are rejected until they fall below the spacing of the
    # row's time
    problem = SimpleNamespace(grad=lambda y: np.where(np.abs(y) > 0.5, np.nan, -y),
                              f=lambda y: np.sum(y * y, axis=-1))
    with pytest.raises(BlowUp, match="integrator failed"):
        solve_ivp(problem, np.array(starts), 5.0, 1e-10, 1e-12, -np.inf)


def test_nan_row_fails_before_any_stage():
    # one NaN row among finite ones makes its first step NaN, which raises
    # after the initial derivative and the initial-step rule's probe, before
    # any stage of a step is evaluated
    calls = []

    def grad(y):
        calls.append(len(y))
        return y

    problem = SimpleNamespace(grad=grad, f=lambda y: 0.5 * np.sum(y * y, axis=-1))
    starts = np.array([[0.1, 0.0], [np.nan, 0.0], [0.0, 0.2]])
    with pytest.raises(BlowUp, match="integrator failed"):
        solve_ivp(problem, starts, 5.0, 1e-10, 1e-12, -np.inf)
    assert calls == [3, 3]


def test_nfev_counts_the_rows_passed_to_grad(p2):
    # rows of mixed horizons, one of zero duration, some stopped by the
    # level: nfev is every row the run passed to grad, kept rows included
    rows = []

    def grad(y):
        rows.append(len(y))
        return p2.problem.grad(y)

    counted = SimpleNamespace(grad=grad, f=p2.problem.f)
    starts = np.random.default_rng(9).uniform(-0.3, 0.3, size=(7, 2))
    durations = np.array([0.0, 0.4, 0.9, 1.6, 2.5, 3.0, 4.0])
    keep = np.arange(7) % 2 == 1
    run = solve_ivp(counted, starts, durations, 1e-10, 1e-12, -0.005,
                    keep_step_ends=keep)
    assert 0 < run.stopped.sum() < 6
    assert run.nfev == sum(rows) > 0


def test_batch_blow_up_and_empty_inputs(p2):
    # the upward flow x' = x carries |x| = 0.3 past BLOWUP_RADIUS by t = 8.2
    unstable = SimpleNamespace(grad=lambda y: -y,
                               f=lambda y: -0.5 * np.sum(y * y, axis=-1))
    starts = np.array([[0.0, 0.0], [0.3, 0.0]])
    with pytest.raises(BlowUp, match="state norm exceeded"):
        solve_ivp(unstable, starts, 10.0, 1e-10, 1e-12, -np.inf)
    run = solve_ivp(p2.problem, starts, 0.0, 1e-10, 1e-12, -np.inf)
    assert np.array_equal(run.terminal, starts) and not run.stopped.any()
    assert run.nfev == 0
    run = solve_ivp(p2.problem, np.zeros((0, 2)), 1.0, 1e-10, 1e-12, -np.inf)
    assert run.terminal.shape == (0, 2) and run.stopped.shape == (0,)
    with pytest.raises(ValueError):
        solve_ivp(p2.problem, starts, -1.0, 1e-10, 1e-12, -np.inf)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_horizon_raises_before_any_step(p2, bad):
    # an infinite horizon from a start on the stable manifold never ends,
    # and a NaN one would return the start unchanged
    calls = []

    def grad(y):
        calls.append(1)
        return p2.problem.grad(y)

    problem = SimpleNamespace(grad=grad, f=p2.problem.f)
    starts = np.array([[0.0, 0.01], [0.0, 0.02]])
    with pytest.raises(ValueError, match=f"row 1 has {bad}"):
        solve_ivp(problem, starts, np.array([1.0, bad]), 1e-11, 1e-13, -np.inf)
    with pytest.raises(ValueError, match="row 0 has"):
        solve_ivp(problem, starts, bad, 1e-11, 1e-13, -np.inf)
    assert not calls


def test_single_trajectory_failures_raise():
    # a NaN start makes the first step NaN, which ends the run at once
    # instead of shrinking a NaN step forever
    calls = []

    def grad(y):
        calls.append(1)
        assert len(calls) <= 2, "the run went on past a NaN step"
        return -y

    stable = SimpleNamespace(grad=grad, critical_point=np.zeros(2))
    with pytest.raises(BlowUp, match="integrator failed"):
        integrate_forward(stable, np.array([np.nan, 0.0]), 5.0)
    # the upward flow x' = x carries |x| = 0.3 past BLOWUP_RADIUS by t = 8.2
    unstable = SimpleNamespace(grad=lambda y: -y, critical_point=np.zeros(2))
    with pytest.raises(BlowUp, match="state norm exceeded"):
        integrate_forward(unstable, np.array([0.3, 0.0]), 10.0)


def test_trajectory_rows_format(p1):
    traj = integrate_forward(p1.problem, np.array([0.01, 0.02]), 0.5)
    rows = reporting.trajectory_rows(p1.problem, traj)
    assert len(rows) == len(traj.times)
    assert len(rows[0]) == len(reporting.trajectory_header(2)) == 1 + 2 + 1
    assert rows[0][0] == 0.0


def test_backward_quadratic_closed_form(p1):
    q = p1.disk.sphere_local[0]
    t = 2.0
    out = backward(p1, q, t)
    assert np.allclose(out, [q[0] * np.exp(-t), 0.0], atol=1e-12)


def test_backward_identity_at_zero(p1):
    q = p1.disk.sphere_local[0]
    out = backward(p1, q, 0.0)
    assert np.allclose(out, q, atol=1e-12)


def test_backward_forward_roundtrip(p2, trajectory_tol):
    q = p2.disk.sphere_local[0]
    trajectory_tol(1e-12, 1e-15)
    for t in (1.0, 3.0, 5.0):
        back = backward(p2, q, t)
        traj = integrate_forward(p2.problem, p2.model.to_ambient(back), t)
        assert np.linalg.norm(p2.model.to_local(traj.states[-1]) - q) <= 1e-6


def test_backward_cocycle(p2):
    q = p2.disk.sphere_local[0]
    one = backward(p2, q, 3.0)
    half = backward(p2, q, 1.5)
    two = backward(p2, half, 1.5)
    assert np.linalg.norm(one - two) <= 1e-9


def at_level(epsilon):
    """A stand-in ladder for ``descending_disk``, which reads its epsilon."""
    return SimpleNamespace(epsilon=epsilon)


def test_sphere_closed_form(p1):
    # f = -x^2/2 on the unstable axis: the level -eps sits at sqrt(2 eps)
    disk = descending_disk(p1.model, at_level(0.005), p1.graph_f)
    assert np.allclose(np.abs(disk.sphere_minus.ravel()), np.sqrt(0.01),
                       atol=1e-9)
    assert set(np.sign(disk.sphere_minus.ravel())) == {-1.0, 1.0}


def test_sphere_radius_shrinks_with_epsilon(p1):
    radii = []
    for eps in (0.004, 0.001, 0.00025):
        d = descending_disk(p1.model, at_level(eps), p1.graph_f)
        radii.append(np.max(np.abs(d.sphere_minus)))
    assert radii[0] > radii[1] > radii[2]
    assert radii[2] <= np.sqrt(2 * 0.00025) * 1.01


def test_sphere_on_level_set(p2):
    c = p2.model.f_local(np.zeros(2))
    for pt in p2.disk.sphere_local:
        assert p2.model.f_local(pt) == pytest.approx(c - p2.ladder.epsilon,
                                                     abs=1e-9)


def _disk_interior(disk):
    """The origin and the points 1/4, 1/2 and 3/4 of the way to each
    sphere point, in minus coordinates."""
    return np.concatenate([np.zeros((1, disk.sphere_minus.shape[1]))]
                          + [f * disk.sphere_minus for f in (0.25, 0.5, 0.75)])


def test_disk_samples_above_level(p2):
    c = p2.model.f_local(np.zeros(2))
    for pt in p2.graph_f.local_points(_disk_interior(p2.disk)):
        assert p2.model.f_local(pt) >= c - p2.ladder.epsilon - 1e-12


def test_epsilon_too_large_raises(p1):
    with pytest.raises(LevelNotReached):
        descending_disk(p1.model, at_level(10.0), p1.graph_f)


def test_level_behind_critical_value_raises(p1):
    # a negative epsilon asks for a level above c, which the unstable graph
    # never reaches: f falls along its rays from f(0) = c
    with pytest.raises(LevelNotReached):
        descending_disk(p1.model, at_level(-1e-3), p1.graph_f)


def test_disk_backward_invariant(p2):
    # backward flow keeps interior samples inside the disk: on the graph,
    # and above the disk's level
    for zm in _disk_interior(p2.disk)[1:3]:
        q = np.zeros(2)
        q[0] = zm[0]
        q[1] = p2.graph_f.evaluate(zm)[0]
        back = backward(p2, q, 2.0)
        assert p2.graph_f.residual(back) <= 1e-7
        assert (p2.model.f_local(back)
                >= p2.model.critical_value - p2.ladder.epsilon * (1 + 1e-9))


def test_sphere_cross_checked_by_shooting(p2):
    # oracle for the sphere location: integrate the graph point down to the
    # level and compare crossing radius (root of f along the unstable graph)
    zm = p2.disk.sphere_minus[0]
    pt = p2.disk.sphere_local[0]
    c = p2.model.f_local(np.zeros(2))
    # independent check: evaluate f on a fine ray grid and bracket the level
    rs = np.linspace(0.0, p2.graph_f.axes[0][-1], 4001)
    fs = np.array([p2.model.f_local(
        np.array([r, p2.graph_f.evaluate(np.array([r]))[0]])) for r in rs])
    idx = np.searchsorted(-fs, -(c - p2.ladder.epsilon))
    assert abs(rs[idx] - abs(zm[0])) <= rs[1] - rs[0] + 1e-12


def test_f_drop_equals_gradient_quadrature(p2, trajectory_tol):
    # f(T) - f(0) = -integral |grad f(phi_t)|^2 dt, by adaptive quadrature
    # over each step; a point inside a step is integrated forward from the
    # step's start (quadrature nodes are interior, so each duration is > 0)
    from scipy.integrate import quad

    start = np.array([0.02, 0.09])
    T = 3.0
    trajectory_tol(1e-12, 1e-14)
    traj = integrate_forward(p2.problem, start, T)

    def speed_sq(s, x):
        end = integrate_forward(p2.problem, x, s).states[-1]
        return float(np.linalg.norm(p2.problem.grad(end)) ** 2)

    drop = sum(quad(speed_sq, 0.0, t1 - t0, args=(x,), epsabs=1e-13)[0]
               for t0, t1, x in zip(traj.times, traj.times[1:], traj.states))
    assert p2.problem.f(traj.states[-1]) - p2.problem.f(start) == \
        pytest.approx(-drop, abs=1e-10)


def test_no_reverse_time_integration(p1):
    # the forward-only convention is a hard contract
    with pytest.raises(ValueError):
        integrate_forward(p1.problem, np.array([0.01, 0.01]), -1.0)
