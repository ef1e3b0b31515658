"""The atlas's clip boundaries in lockstep, against one graph at a time.

``build_atlas`` bisects the clip level along every ray of every leaf in one
loop (``lyapunov_perron.level_crossings``).  Each ray keeps its own bracket
and stop rules, so its radius must be the same bit for bit as the one a
bisection of its graph alone gives.  The foliate stage runs here as
``gradleaf all`` runs it, with the stencil builds inside ``build_atlas``
counted.  The stage's nearest-probe search and the pair's median are held
to the forms they replaced, bit for bit.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from gradleaf import foliation as fol
from gradleaf import lyapunov_perron as lp
from gradleaf import pipeline
from gradleaf.curves import row_norms
from gradleaf.problems import load_problem

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
#: stencil builds inside build_atlas the lockstep bisection stays under
#: (one graph at a time took 750 on k2, 203 on p2 and 182 on p3)
STENCIL_CAPS = {"k2_cubic": 100, "p2_quartic": 80, "p3_cubic3d": 80}


@pytest.fixture(scope="module")
def foliated(tmp_path_factory):
    """The foliate stage of each config, with the ``multilinear_stencil``
    calls made inside ``build_atlas`` counted and the atlas it built kept:
    config -> (state, count, atlas)."""
    runs = {}
    for name in STENCIL_CAPS:
        calls = {"inside": False, "count": 0, "atlas": None}

        def counted(*args, _stencil=lp.multilinear_stencil):
            calls["count"] += calls["inside"]
            return _stencil(*args)

        def build_atlas(*args, _build=fol.build_atlas, **kwargs):
            calls["inside"] = True
            try:
                calls["atlas"] = _build(*args, **kwargs)
                return calls["atlas"]
            finally:
                calls["inside"] = False

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp, "multilinear_stencil", counted)
            mp.setattr(fol, "multilinear_stencil", counted)
            mp.setattr(fol, "build_atlas", build_atlas)
            state = pipeline.run(load_problem(CONFIGS / f"{name}.json"),
                                 tmp_path_factory.mktemp(name),
                                 ("spectral", "ladder", "manifolds", "foliate"),
                                 0, None)
        assert state.statuses["foliate"] == "pass"
        runs[name] = (state, calls["count"], calls["atlas"])
    return runs


def loop_level_crossing(graph, f, directions, level, tol):
    """The one-graph lockstep bisection the atlas used before its leaves
    were bisected together, on ``GraphSample.local_points``."""
    sign = -1.0 if graph.domain_sign == "minus" else 1.0
    r_max = float(min(ax[-1] for ax in graph.axes))
    floor = 1e-16 * max(1.0, r_max)

    def offset(r, rows):
        points = graph.local_points(r[:, None] * directions[rows])
        return sign * (f(points) - level)

    m = directions.shape[0]
    radii = np.full(m, np.nan)
    live = np.flatnonzero(offset(np.zeros(m), slice(None)) < 0)
    if live.size:
        live = live[offset(np.full(live.size, r_max), live) >= 0]
    lo, hi = np.zeros(m), np.full(m, r_max)
    for _ in range(lp.LEVEL_BISECT_STEPS):
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        val = offset(mid, live)
        radii[live] = mid
        done = (np.abs(val) <= tol) | (hi[live] - lo[live] < floor)
        below = val < 0
        lo[live[below]] = mid[below]
        hi[live[~below]] = mid[~below]
        live = live[~done]
    return radii


@pytest.mark.parametrize("name, n_leaves, n_rays", [
    ("p2_quartic", 6, 2), ("k2_cubic", 24, 2), ("p3_cubic3d", 6, 8)])
def test_level_crossings_match_one_graph_at_a_time(foliated, name, n_leaves, n_rays):
    state, _, atlas = foliated[name]
    f = state.model.f_local
    graphs = [leaf.graph for leaf in atlas.leaves.values()]
    d = state.model.n - state.model.k
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        angles = np.linspace(0.0, 2 * np.pi, n_rays, endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    assert (len(graphs), len(dirs)) == (n_leaves, n_rays)
    # the clip level, and a level between the values of f at the far ends
    # of the rays, which some rays of some leaves do not reach (NaN)
    r_max = min(ax[-1] for ax in graphs[0].axes)
    far = f(np.concatenate([g.local_points(r_max * dirs) for g in graphs]))
    seen = []
    clip = state.model.critical_value + state.ladder.epsilon
    for level in (clip, 0.5 * (far.min() + far.max())):
        tol = 1e-12 * max(1.0, abs(level)) + 1e-15
        radii = lp.level_crossings(graphs, f, dirs, level, tol)
        assert radii.shape == (n_leaves, n_rays)
        per_graph = np.concatenate([lp.level_crossings([g], f, dirs, level, tol)
                                    for g in graphs])
        loop = np.stack([loop_level_crossing(g, f, dirs, level, tol) for g in graphs])
        assert radii.tobytes() == per_graph.tobytes() == loop.tobytes()
        seen.append(radii)
    seen = np.concatenate(seen)
    assert np.isnan(seen).any() and not np.isnan(seen).all()


def test_level_crossings_need_one_grid(foliated):
    state, _, atlas = foliated["p2_quartic"]
    leaf = next(iter(atlas.leaves.values()))
    with pytest.raises(ValueError, match="one grid"):
        lp.level_crossings([leaf.graph, atlas.center.graph],
                           state.model.f_local, np.array([[1.0]]),
                           state.model.critical_value + state.ladder.epsilon, 1e-12)


@pytest.mark.parametrize("name", sorted(STENCIL_CAPS))
def test_build_atlas_stencil_count(foliated, name):
    _, count, _ = foliated[name]
    assert 0 < count <= STENCIL_CAPS[name]


def test_contraction_to_center_matches_point_major_search(foliated):
    # the nearest-probe search one inside point at a time, with the probes
    # point-major as before the search went coordinate-major
    _, _, atlas = foliated["p3_cubic3d"]
    probes = lp.tensor_points(fol._refined_axes(atlas.center.graph.axes, 8))
    center_pts = atlas.center.graph.local_points(probes)
    report = fol.contraction_to_center(atlas)
    assert len(report.rows) == len(atlas.leaves)
    for row, leaf in zip(report.rows, atlas.leaves.values()):
        _, pts = leaf.inside_points()
        sup = max(float(np.min(row_norms(center_pts - p))) for p in pts)
        assert row.gap.hex() == sup.hex()
        assert row.bound == math.exp(-leaf.graph.T * atlas.ladder.lambda_ / 8.0)


def test_median_matches_numpy():
    rng = np.random.default_rng(5)
    for size in range(1, 80):
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8)
        assert fol._median(x) == float(np.median(x))
        assert fol._median(np.round(x, 1)) == float(np.median(np.round(x, 1)))
