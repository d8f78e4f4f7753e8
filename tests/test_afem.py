"""Driver tests: marking oracle, registry consistency checks by finite
differences, adaptive localisation, stopping, rates, hypothesis ratios."""

import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

from afemflux import afem, equilibration
from afemflux.afem import (
    AfemConfig,
    check_hypotheses,
    doerfler_mark,
    fit_rate,
    run,
)
from afemflux.mesh import ancestor_map, interior_node_depth, lshape, refined_set
from afemflux.problems import ProblemSpec, REGISTRY, get_problem, register_problem


class TestProblemRegistry:
    @pytest.mark.parametrize("name", ["square_sine", "square_poly"])
    def test_exact_solution_satisfies_pde(self, name):
        # 4th order finite-difference laplacian against the registered load
        prob = get_problem(name)
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.2, 0.8, (50, 2))
        x, y = pts[:, 0], pts[:, 1]
        h = 1e-3
        lap = np.zeros_like(x)
        for dx, dy in ((h, 0), (-h, 0), (0, h), (0, -h)):
            lap += (16 * prob.u_exact(x + dx, y + dy)
                    - prob.u_exact(x + 2 * dx, y + 2 * dy)) / 12
        lap = (lap - 5.0 * prob.u_exact(x, y)) / h ** 2
        assert np.allclose(-lap, prob.f(x, y), atol=5e-8)

    @pytest.mark.parametrize("name", ["square_sine", "square_poly"])
    def test_gradient_matches_difference_quotients(self, name):
        prob = get_problem(name)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.1, 0.9, (40, 2))
        x, y = pts[:, 0], pts[:, 1]
        h = 1e-6
        gx = (prob.u_exact(x + h, y) - prob.u_exact(x - h, y)) / (2 * h)
        gy = (prob.u_exact(x, y + h) - prob.u_exact(x, y - h)) / (2 * h)
        ex, ey = prob.grad_exact(x, y)
        assert np.allclose(gx, ex, atol=1e-8)
        assert np.allclose(gy, ey, atol=1e-8)

    def test_exact_vanishes_on_boundary(self):
        prob = get_problem("square_sine")
        s = np.linspace(0, 1, 17)
        for xx, yy in ((s, 0 * s), (s, 1 + 0 * s), (0 * s, s), (1 + 0 * s, s)):
            assert np.allclose(prob.u_exact(xx, yy), 0.0, atol=1e-14)

    def test_registry_errors(self):
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("missing")
        with pytest.raises(ValueError, match="already registered"):
            register_problem(REGISTRY["square_sine"])

    def test_lshape_problem_mesh(self):
        prob = get_problem("lshape_one")
        mesh = prob.mesh_factory()
        assert mesh.areas.sum() == pytest.approx(3.0)
        assert not prob.has_exact


class TestDoerflerMarking:
    def brute_minimum(self, sq, theta):
        total = sq.sum()
        for size in range(sq.size + 1):
            for combo in itertools.combinations(range(sq.size), size):
                if sq[list(combo)].sum() >= theta * theta * total - 1e-14:
                    return size
        return sq.size

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("theta", [0.2, 0.5, 0.8, 1.0])
    def test_minimal_cardinality(self, seed, theta):
        rng = np.random.default_rng(seed)
        ind = rng.uniform(0, 1, rng.integers(4, 11))
        marked = doerfler_mark(ind, theta)
        sq = ind ** 2
        assert sq[marked].sum() >= theta ** 2 * sq.sum() - 1e-12
        assert marked.size == self.brute_minimum(sq, theta)

    def test_ties_take_lower_ids(self):
        ind = np.array([1.0, 1.0, 1.0, 1.0])
        marked = doerfler_mark(ind, 0.5)
        assert marked.tolist() == [0]  # one element holds 1/4 of the mass

    def test_round_off_in_indicators_keeps_the_meshes(self, monkeypatch):
        # symmetric elements of the L-shape carry indicators equal up to
        # round-off; relative noise of 1e-13 must not decide which of them
        # is marked, level after level
        config = AfemConfig(problem="lshape_one", degree=1, max_dofs=4_000)
        plain = run(config)
        rng = np.random.default_rng(7)

        def noisy(ind, theta):
            return doerfler_mark(
                ind * (1 + 1e-13 * rng.standard_normal(ind.size)), theta)

        monkeypatch.setattr(afem, "doerfler_mark", noisy)
        moved = run(config)
        assert moved.series("n_marked").tolist() == \
            plain.series("n_marked").tolist()
        assert np.array_equal(moved.final.mesh.triangles,
                              plain.final.mesh.triangles)
        assert np.array_equal(moved.final.mesh.points,
                              plain.final.mesh.points)

    def test_empty_only_for_zero(self):
        assert doerfler_mark(np.zeros(5), 0.9).size == 0
        assert doerfler_mark(np.array([0.0, 1e-30]), 0.1).size == 1

    def test_theta_one_marks_everything_nonzero(self):
        ind = np.array([0.5, 0.1, 0.0, 0.7])
        marked = doerfler_mark(ind, 1.0)
        assert marked.tolist() == [0, 1, 3] or marked.tolist() == [0, 1, 2, 3]

    def test_validation(self):
        with pytest.raises(ValueError, match="theta"):
            doerfler_mark(np.ones(3), 0.0)
        with pytest.raises(ValueError, match="theta"):
            doerfler_mark(np.ones(3), 1.5)
        with pytest.raises(ValueError, match="nonnegative"):
            doerfler_mark(np.array([1.0, -0.1]), 0.5)
        with pytest.raises(ValueError, match="1-d"):
            doerfler_mark(np.ones((2, 2)), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_indicators_named(self, bad):
        # a nan or inf would otherwise mark [0, 1, 3] or [1] at theta 0.5
        with pytest.raises(ValueError, match="element 1 .*not finite"):
            doerfler_mark(np.array([1.0, bad, 0.5, 2.0]), 0.5)


class TestFitRate:
    def test_recovers_power_law(self):
        n = np.array([100, 200, 400, 800, 1600], dtype=float)
        v = 3.0 * n ** -0.75
        assert fit_rate(n, v) == pytest.approx(0.75, rel=1e-10)

    def test_ignores_nonfinite(self):
        n = np.array([100, 200, 400, 800], dtype=float)
        v = np.array([np.nan, 2.0, 1.0, 0.5])
        assert np.isfinite(fit_rate(n, v))
        assert np.isnan(fit_rate(n[:1], v[:1]))


def extrema(rows, name):
    """Smallest and largest finite value of one ratio over the rows, nan
    for both when there is none."""
    vals = np.array([getattr(r, name) for r in rows])
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return float("nan"), float("nan")
    return float(vals.min()), float(vals.max())


def containing_triangle(mesh, xy):
    """Id of the triangle of `mesh` that holds each point strictly inside."""
    a, b, c = (mesh.points[mesh.triangles[:, i]][None] for i in range(3))
    p = xy[:, None]

    def left(o, d):
        return (d[..., 0] - o[..., 0]) * (p[..., 1] - o[..., 1]) \
            - (d[..., 1] - o[..., 1]) * (p[..., 0] - o[..., 0]) > 0

    inside = left(a, b) & left(b, c) & left(c, a)
    assert (inside.sum(axis=1) == 1).all()
    return inside.argmax(axis=1)


def run_with_hypotheses(config):
    """Run the loop, checking each consecutive pair as its finer level
    finishes; returns the result and the hypothesis rows."""
    prob = config.resolve_problem()
    rows, prev = [], []

    def on_level(state):
        if prev:
            rows.append(check_hypotheses(prob, prev.pop(), state))
        prev.append(state)

    return run(config, on_level), rows


@pytest.fixture(scope="module")
def lshape_run():
    return run_with_hypotheses(AfemConfig(
        problem="lshape_one", degree=1, estimator="delta", theta=0.5,
        max_dofs=2500))


class TestDriver:
    def test_run_never_forms_q_delta(self, monkeypatch):
        # the loop reads eta_delta, eta_star and the jumps of each flux;
        # the coefficients of q_delta are formed on first access alone
        formed = []
        real = equilibration._flux_coefficients
        monkeypatch.setattr(equilibration, "_flux_coefficients",
                            lambda space, w: formed.append(1) or real(space, w))
        res = run(AfemConfig(problem="lshape_one", degree=2, max_dofs=1000))
        assert len(res.records) >= 3 and formed == []
        flux = res.final.report.flux
        assert flux.q_delta is flux.q_delta and formed == [1]

    def test_run_fluxes_equal_cold_calls(self):
        # the loop carries its element blocks from level to level; each
        # level's flux is the one a call without them gives, bit for bit
        prob = get_problem("lshape_one")
        same = []

        def on_level(state):
            warm = state.report.flux
            cold = equilibration.equilibrate(state.field, prob.f)
            same.append(all(
                np.array_equal(getattr(warm, name), getattr(cold, name))
                for name in ("w_delta", "eta_delta", "eta_star",
                             "patch_residuals")))

        run(AfemConfig(problem=prob, degree=1, max_dofs=1500), on_level)
        assert len(same) >= 7 and all(same)

    def test_auto_bisections_is_interior_node_depth(self, lshape_run):
        lshape_run, _ = lshape_run
        assert lshape_run.b == interior_node_depth(lshape())
        assert all(r.b == lshape_run.b for r in lshape_run.records)

    def test_records_are_consistent(self, lshape_run):
        res, _ = lshape_run
        lv = res.series("level")
        assert np.array_equal(lv, np.arange(len(res.records)))
        nd = res.series("n_dofs")
        assert (np.diff(nd) > 0).all()
        assert res.records[-1].eta_delta < 0.3 * res.records[0].eta_delta
        assert res.stop_reason == "max_dofs"
        assert np.isnan(res.series("energy_error")).all()

    def test_adaptive_mesh_localises_at_corner(self, lshape_run):
        res, _ = lshape_run
        mesh = res.final.mesh
        assert res.final.record == res.records[-1]
        cent = mesh.points[mesh.triangles].mean(axis=1)
        r = np.hypot(cent[:, 0], cent[:, 1])
        near = mesh.areas[r < 0.1]
        far = mesh.areas[r > 0.6]
        assert near.size > 10
        assert far.max() / near.min() > 8.0

    def test_rate_near_optimal(self, lshape_run):
        # the corner singularity limits uniform refinement to N^(-1/3);
        # adaptivity must restore close to N^(-1/2) for P1
        assert lshape_run[0].rate("eta_delta") > 0.4

    def test_hypothesis_ratios(self, lshape_run):
        res, rows = lshape_run
        assert interior_node_depth(res.final.mesh.root()) == 5
        assert [(r.level_coarse, r.level_fine) for r in rows] == \
            [(i, i + 1) for i in range(len(res.records) - 1)]
        lo3, hi3 = extrema(rows, "h3")
        lo4, hi4 = extrema(rows, "h4")
        assert 0 < lo3 and hi3 < 1.1  # localised reliability, constant one
        assert 0 < lo4 and hi4 < 2.0
        # f = 1 is resolved exactly: oscillation ratios are 0/0
        assert np.isnan(extrema(rows, "lam1")[0])

    def test_constant_data_leave_no_oscillation_at_p2(self):
        # f = 1 lies in P^1: the oscillation is exactly zero, not round-off,
        # so the lambda ratios are 0/0 rather than ratios of round-off
        res, rows = run_with_hypotheses(AfemConfig(
            problem="lshape_one", degree=2, max_dofs=400))
        assert len(rows) >= 2
        assert all(r.osc == 0.0 and r.osc_star == 0.0 for r in res.records)
        assert all(np.isnan(r.lam1) and np.isnan(r.lam2) for r in rows)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_scalar_load_runs_as_its_array_form(self, degree):
        # a load returning a plain float is broadcast wherever f is
        # evaluated: the run, and the verification of its last flux, match
        # those of the array-valued f = 1 bit for bit
        one = get_problem("lshape_one")
        scalar = dataclasses.replace(one, name="lshape_scalar_one",
                                     f=lambda x, y: 1.0)
        ref = run(AfemConfig(problem=one, degree=degree, max_dofs=600))
        got = run(AfemConfig(problem=scalar, degree=degree, max_dofs=600))
        assert len(got.records) >= 3
        np.testing.assert_equal([dataclasses.astuple(r) for r in got.records],
                                [dataclasses.astuple(r) for r in ref.records])
        assert got.final.report.flux.verify(scalar.f) \
            == ref.final.report.flux.verify(one.f)

    def test_lambda_ratios_with_oscillating_data(self):
        _, rows = run_with_hypotheses(AfemConfig(
            problem="square_sine", degree=1, theta=0.6, max_dofs=1200))
        lo1, hi1 = extrema(rows, "lam1")
        lo2, hi2 = extrema(rows, "lam2")
        assert 0 < lo1 <= hi1 < 1.5
        # the patchwise drop is global while its denominator is restricted
        # to the deeply refined set, so values above one are legitimate
        assert 0 < lo2 <= hi2 < 100.0
        h1lo, h1hi = extrema(rows, "h1")
        h2lo, h2hi = extrema(rows, "h2")
        assert 0 < h1lo and h1hi < 1.2  # reliability (constant one family)
        assert 0 < h2lo and h2hi < 1.2  # efficiency of the delta estimator

    def test_floor_stop_for_resolved_polynomial(self):
        res = run(AfemConfig(problem="square_poly", degree=4,
                             max_dofs=10 ** 6))
        assert res.stop_reason == "estimator_floor"
        assert len(res.records) == 1
        assert res.records[0].eta_delta < 1e-12

    def test_max_levels_stop(self):
        res = run(AfemConfig(problem="square_sine", degree=1, max_levels=2,
                             max_dofs=10 ** 6))
        assert res.stop_reason == "max_levels"
        assert len(res.records) == 3

    def test_theta_one_gives_uniform_refinement(self):
        res = run(AfemConfig(problem="square_sine", degree=1, theta=1.0,
                             max_dofs=400))
        for r in res.records:
            assert r.n_marked == r.n_elements

    @pytest.mark.parametrize("family", ["star", "residual", "residual_star"])
    def test_other_estimator_families_drive_convergence(self, family):
        res = run(AfemConfig(problem="lshape_one", degree=1,
                             estimator=family, theta=0.5, max_dofs=1500))
        assert res.records[-1].eta_delta < 0.4 * res.records[0].eta_delta
        assert res.rate("eta_delta") > 0.3

    def test_config_validation(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before validating the config")

        monkeypatch.setattr(afem, "FeSpace", no_solve)
        for bad, match in (({"estimator": "bogus"}, "estimator"),
                           ({"bisections": 0}, "bisections"),
                           ({"theta": 0.0}, "theta"),
                           ({"theta": 1.5}, "theta"),
                           ({"max_levels": -1}, "max_levels")):
            with pytest.raises(ValueError, match=match):
                run(AfemConfig(**bad))

    def test_hypotheses_need_levels(self):
        res, rows = run_with_hypotheses(AfemConfig(problem="square_sine",
                                                   max_levels=0))
        assert len(res.records) == 1 and rows == []

    def test_run_keeps_only_the_final_level(self):
        refs = []

        def on_level(state):
            refs.append((weakref.ref(state.field),
                         weakref.ref(state.report.flux)))

        res = run(AfemConfig(problem="square_sine", max_levels=3,
                             max_dofs=10 ** 6), on_level)
        gc.collect()
        assert len(refs) == len(res.records) == 4
        alive = [(f() is not None, q() is not None) for f, q in refs]
        assert alive == [(False, False)] * 3 + [(True, True)]
        assert refs[-1][0]() is res.final.field

    def test_run_releases_the_level_meshes(self):
        states = []
        res = run(AfemConfig(problem="lshape_one", max_levels=3,
                             max_dofs=10 ** 6), states.append)
        final = res.final.mesh
        assert len(states) == 4 and states[-1] is res.final
        # while a level is held, its lineage to the final mesh is intact:
        # each final triangle's centroid lies in its ancestor, and a
        # bisection halves the area, so a gain of j generations divides it
        # by 2^j
        for state in states[:-1]:
            anc = ancestor_map(state.mesh, final)
            assert np.array_equal(anc, containing_triangle(state.mesh,
                                                           final.centroids))
            gains = np.rint(np.log2(state.mesh.areas[anc] / final.areas))
            least = np.full(state.mesh.n_triangles, np.inf)
            np.minimum.at(least, anc, gains)
            for j in (1, 2, 5):
                assert np.array_equal(refined_set(state.mesh, final, j),
                                      np.nonzero(least >= j)[0])
        refs = [weakref.ref(s.mesh) for s in states]
        del states, state
        gc.collect()
        assert [r() is not None for r in refs] == [True, False, False, True]
        assert refs[0]() is final.root() and refs[-1]() is final

    def test_degree_two_rate(self):
        res = run(AfemConfig(problem="square_sine", degree=2, theta=0.7,
                             max_dofs=2200))
        assert res.rate("energy_error") > 0.75
        errs = res.series("energy_error")
        etas = res.series("eta_delta")
        assert np.all(errs <= etas + res.series("osc") + 1e-12)
