"""``solve_ivp`` evaluates f only when its stop level can stop
a row: with ``-inf`` no f value is below it, so f is never called."""

from types import SimpleNamespace

import numpy as np

from gradleaf.flow import solve_ivp


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_no_f_call_without_a_finite_level(p2):
    calls = []

    def f(y):
        calls.append(y.shape)
        return p2.problem.f(y)

    counted = SimpleNamespace(grad=p2.problem.grad, f=f)
    starts = np.random.default_rng(5).uniform(-0.3, 0.3, size=(9, 2))
    durations = np.linspace(0.5, 3.0, 9)
    open_end = solve_ivp(counted, starts, durations, 1e-10, 1e-12, -np.inf)
    assert calls == [] and not open_end.stopped.any()
    # a finite level no row reaches checks f at every step and ends alike
    checked = solve_ivp(counted, starts, durations, 1e-10, 1e-12, -1e300)
    assert calls and not checked.stopped.any()
    assert _same_bits(open_end.terminal, checked.terminal)
