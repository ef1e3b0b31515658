"""Dense output formed in one pass, against one segment at a time.

A ``DenseSolution`` forms the interpolants of all segments a read needs
together: each extra stage is one right-hand-side call over all of them,
and the stage sums are stacked.  Each segment's coefficients, and so every
interpolated value, must be those the per-segment formation (kept below as
the reference) gives, bit for bit.
"""

from pathlib import Path

import numpy as np
import pytest

from gradleaf import dop853, flow, oracle, pipeline
from gradleaf.flow import integrate_forward
from gradleaf.polynomials import Polynomial
from gradleaf.problems import load_problem

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def reference_interpolant(sol, i):
    """Coefficients ``F`` (7, n) of segment ``i``, formed alone (scipy's
    ``_dense_output_impl``) with one-point right-hand-side calls."""
    h, K = sol.steps[i], sol._stages[i].copy()
    y_old, y_new = sol.states[i], sol.states[i + 1]
    for s in range(dop853.N_STAGES + 1, dop853.N_STAGES_EXTENDED):
        dy = np.dot(K[:s].T, dop853.A[s, :s]) * h
        K[s] = sol._fun(y_old + dy)
    f_old, f_new = K[0], K[dop853.N_STAGES]
    delta_y = y_new - y_old
    F = np.empty((dop853.INTERPOLATOR_POWER, y_old.size))
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f_new + f_old)
    F[3:] = h * np.dot(dop853.D, K)
    return F


def reference_value(sol, i, t):
    """``Dop853DenseOutput`` of segment ``i`` at the times ``t``."""
    F = reference_interpolant(sol, i)
    x = ((t - sol.times[i]) / sol.steps[i])[..., None]
    y = np.zeros(np.shape(t) + F.shape[-1:])
    for k in range(dop853.INTERPOLATOR_POWER):
        y += F[-1 - k]
        y *= x if k % 2 == 0 else 1 - x
    return y + sol.states[i]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _read_scrambled(sol, seed):
    """Read every segment at three of its times, in scrambled order and in
    reads of up to five segments, twice; check every value against the
    reference and that each segment is formed once, with 3 right-hand-side
    evaluations."""
    rng = np.random.default_rng(seed)
    count = len(sol.steps)
    nfev = sol.nfev
    for sweep in range(2):
        order = rng.permutation(count)
        for chunk in np.array_split(order, max(1, count // 5)):
            segment = np.repeat(chunk, 3)
            frac = np.tile([0.0, 0.37, 1.0], chunk.size)
            t = sol.times[segment] + frac * np.array(sol.steps)[segment]
            got = sol.segment_value(segment, t)
            for row, (i, ti) in enumerate(zip(segment, t)):
                assert _same_bits(got[row], reference_value(sol, i, ti)), (sweep, i)
        assert sorted(sol._coefficients) == list(range(count))
        for i in range(count):
            assert _same_bits(sol._coefficients[i], reference_interpolant(sol, i))
        assert sol.nfev == nfev + 3 * count


@pytest.fixture(scope="module")
def p2_oracle(tmp_path_factory):
    """p2's oracle stage, with its trajectory reads counted: the stage's
    queries, the state, and per read the input shapes of the gradient calls
    made inside it."""
    record = {"queries": None, "reads": [], "inside": None}
    gradient = Polynomial.gradient

    def counted_gradient(self, x):
        if record["inside"] is not None:
            record["inside"].append(np.shape(x))
        return gradient(self, x)

    def at(self, t, _at=flow.DenseSolution.at):
        record["inside"] = []
        try:
            return _at(self, t)
        finally:
            record["reads"].append(record["inside"])
            record["inside"] = None

    def mixed_bvp_oracle(model, queries):
        record["queries"] = list(queries)
        return oracle.mixed_bvp_oracle(model, queries)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polynomial, "gradient", counted_gradient)
        mp.setattr(flow.DenseSolution, "at", at)
        mp.setattr(pipeline, "mixed_bvp_oracle", mixed_bvp_oracle)
        state = pipeline.run(load_problem(CONFIGS / "p2_quartic.json"),
                             tmp_path_factory.mktemp("p2"),
                             ("spectral", "ladder", "manifolds", "oracle"), 0, None)
    assert state.statuses["oracle"] == "pass"
    return state, record


def test_oracle_reads_batch_their_interpolants(p2_oracle):
    # one-point formation made 1,728 gradient calls in these 8 reads
    _, record = p2_oracle
    assert len(record["reads"]) == 8
    for shapes in record["reads"]:
        assert 1 <= len(shapes) <= 3
        assert all(len(shape) == 2 for shape in shapes)


def test_oracle_trajectories_match_per_segment_formation(p2_oracle):
    state, record = p2_oracle
    shot = oracle.mixed_bvp_oracle(state.model, record["queries"])
    assert len(shot) == 8
    for seed, (sol, _) in enumerate(shot):
        assert not sol._coefficients
        _read_scrambled(sol, seed)


def test_single_run_matches_per_segment_formation(p2):
    sol = integrate_forward(p2.problem, np.array([0.3, -0.2]), 4.0)
    # the run ends on a step end, so it reads no segment
    assert not sol._coefficients
    _read_scrambled(sol, 99)
    ts = np.linspace(0.0, 4.0, 41)
    assert _same_bits(sol.at(ts), sol.at(ts[::-1])[::-1])
