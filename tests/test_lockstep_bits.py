"""``flow.solve_ivp`` repeats, bit for bit, the lockstep loop it replaced.

The loop writes each stage's right-hand side into its slot of a stage block
that it reuses while the live rows stay the same, and sums the stages into
reused buffers.  ``references.lockstep_reference`` keeps the loop that made
a fresh array for every stage, sum and estimate.  The two must agree in
every bit of the terminal states, the stop mask, the kept step ends and the
right-hand-side count, on the p2, k2 and p3 problems, with rows of
different horizons (one of them 0), a stop level that some rows reach,
rows that retire at different steps and, on p2 and k2, a rejected step
(on p2 also a step taken after a rejection, whose growth is capped at 1).
"""

import numpy as np
import pytest

from conftest import reference_problem
from gradleaf import dop853
from gradleaf.flow import solve_ivp
from references import lockstep_reference

ROWS = 12
#: problem -> (stop level, longest horizon, rtol, atol, seed, a step is rejected)
CASES = {
    "p2_quartic": (-2.0, 6.0, 1e-10, 1e-12, 3, True),
    "k2_cubic": (-2.0, 2.0, 1e-10, 1e-12, 2, True),
    "p3_cubic3d": (-1.0, 2.3, 1e-8, 1e-10, 0, False),
}


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _inputs(problem, longest, seed):
    """Starts whose first coordinate spans six decades, so their steps
    differ, and horizons spread over [0, longest] in a shuffled order."""
    rng = np.random.default_rng(seed)
    n = problem.dimension
    spread = np.logspace(-6, 0, ROWS)[:, None] ** (np.arange(n) == 0)
    starts = problem.critical_point + rng.uniform(-0.5, 0.5, (ROWS, n)) * spread
    return starts, rng.permutation(np.linspace(0.0, longest, ROWS))


@pytest.mark.parametrize("keep", ["all", "odd", None])
@pytest.mark.parametrize("name", sorted(CASES))
def test_step_ends_match_the_fresh_array_loop(name, keep):
    level, longest, rtol, atol, seed, rejects = CASES[name]
    problem = reference_problem(name)
    starts, horizons = _inputs(problem, longest, seed)
    mask = {"all": np.ones(ROWS, dtype=bool), "odd": np.arange(ROWS) % 2 == 1,
            None: None}[keep]
    run = solve_ivp(problem, starts, horizons, rtol, atol, level, keep_step_ends=mask)
    ref = lockstep_reference(problem, starts, horizons, rtol, atol, level,
                             keep_step_ends=mask)
    assert _same_bits(run.terminal, ref.terminal)
    assert np.array_equal(run.stopped, ref.stopped)
    assert run.nfev == ref.nfev
    assert 0 < run.stopped.sum() < ROWS - 1
    if mask is None:
        assert run.step_ends is None and ref.step_ends is None
        return
    for i, (ends, ref_ends) in enumerate(zip(run.step_ends, ref.step_ends)):
        if not mask[i]:
            assert ends is None and ref_ends is None
            continue
        assert _same_bits(ends.times, ref_ends.times)
        assert _same_bits(ends.states, ref_ends.states)
    steps = [len(ends.times) - 1 for ends in run.step_ends if ends is not None]
    assert len(set(steps)) > 1
    if keep == "all":
        # every live row takes each step of the loop, and a kept row records
        # each step it accepts: the steps it did not record were rejected
        assert 0 in steps  # the row of horizon 0 takes none
        taken = (run.nfev - 2 * np.count_nonzero(horizons)) // dop853.N_STAGES
        assert (taken > sum(steps)) == rejects
