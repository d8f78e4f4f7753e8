"""Estimator tests against hand-computed values on one- and two-element
meshes, where every integral is elementary."""

import itertools
import sys

import numpy as np
import pytest

from afemflux import estimators
from afemflux.equilibration import equilibrate
from afemflux.estimators import (
    EstimatorReport,
    estimate,
    oscillation,
    patch_oscillation,
    patch_residual_indicators,
    residual_indicators,
)
from afemflux.galerkin import (
    FeSpace,
    ScalarField,
    element_batches,
    element_laplacians,
    energy_error,
    normal_jumps,
    solve_poisson,
)
from afemflux.mesh import Mesh, bisect, lshape, unit_square_crisscross
from test_equilibration import graded_lshape, jittered_square


def f_sine(x, y):
    return 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)


def grad_sine(x, y):
    return (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))


def reference_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh.from_arrays(pts, np.array([[0, 1, 2]]))


def split_square():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return Mesh.from_arrays(pts, np.array([[0, 1, 2], [0, 2, 3]]))


def hand_jump(mesh, nodal):
    """Constant gradient jump of a P1 field across the diagonal of
    split_square, with the symmetric outward-normal convention."""
    grads = []
    for tri in mesh.triangles:
        p = mesh.points[tri]
        T = np.array([p[1] - p[0], p[2] - p[0]])
        grads.append(np.linalg.solve(T, nodal[tri][1:] - nodal[tri][0]))
    n0 = np.array([-1.0, 1.0]) / np.sqrt(2.0)  # outward from (0,1,2)
    return grads[0] @ n0 + grads[1] @ (-n0)


def residual_eta(u, f):
    """Elementwise residual indicators of any field, Galerkin or not."""
    vol, _, edge, _ = estimators._residual_squares(u, f, normal_jumps(u))
    return residual_indicators(u.space.mesh, vol, edge)


def patch_residual_eta(u, f):
    """Hat-weighted residual indicators of any field."""
    _, vol_hat, _, edge_hat = estimators._residual_squares(
        u, f, normal_jumps(u))
    return patch_residual_indicators(u.space.mesh, vol_hat, edge_hat)


def unshared_residual_reference(u, f):
    """Both residual families as separate passes compute them: f + lap u
    and the normal jumps evaluated anew for each family and weighting,
    each reduced by the product with the weights that `_residual_squares`
    uses."""
    space = u.space
    mesh = space.mesh
    rule = space.rule_fine
    er = space.edge_rule_main
    hE = mesh.edge_lengths

    def volume(weighted):
        w = rule.weights[:, None] * rule.bary ** 2 if weighted \
            else rule.weights
        out = np.empty((mesh.n_triangles,) + w.shape[1:])
        for batch in element_batches(mesh, rule.points):
            els, X = batch.els, batch.X
            r = f(X[..., 0], X[..., 1]) + element_laplacians(
                u, rule.points, els)
            area = mesh.areas[els, None] if weighted else mesh.areas[els]
            out[els] = ((r * r) @ w) * area
        return out

    def edge(weighted):
        J = normal_jumps(u)
        if weighted:
            s = er.points
            phis = np.column_stack([1.0 - s, s]) ** 2
            sq = ((J * J) @ (er.weights[:, None] * phis)) * hE[:, None]
        else:
            sq = (J * J) @ er.weights * hE
        sq[mesh.boundary_edge] = 0.0
        return sq

    eta_sq = mesh.diameters ** 2 * volume(False)
    eta_sq += (edge(False) * hE)[mesh.edge_of_triangle].sum(axis=1)
    star_sq = np.zeros(mesh.n_vertices)
    np.add.at(star_sq, mesh.triangles.ravel(),
              (mesh.diameters[:, None] ** 2 * volume(True)).ravel())
    np.add.at(star_sq, mesh.edges.ravel(),
              (edge(True) * hE[:, None]).ravel())
    return np.sqrt(eta_sq), np.sqrt(star_sq)


def loop_patch_sums(mesh, sq, edge_sq=None):
    """The patch sums of `_patch_sums`, and with edge_sq those of
    `patch_residual_indicators`, as a plain loop: each element value added
    to its vertex in element order, then each edge value to its
    endpoint."""
    out = [0.0] * mesh.n_vertices
    vals = np.broadcast_to(sq, mesh.triangles.shape)
    pairs = [zip(mesh.triangles.ravel().tolist(), vals.ravel().tolist())]
    if edge_sq is not None:
        pairs.append(zip(mesh.edges.ravel().tolist(),
                         edge_sq.ravel().tolist()))
    for v, x in itertools.chain(*pairs):
        out[v] += x
    return np.array(out)


class TestPatchSums:
    @pytest.mark.parametrize("make_mesh", [graded_lshape, jittered_square])
    def test_sums_in_input_order(self, make_mesh):
        # values over 16 decades, so that another summation order shows
        mesh = make_mesh()
        rng = np.random.default_rng(5)

        def spread(*shape):
            return rng.random(shape) * 10.0 ** rng.integers(-8, 8, shape)

        nt, ne = mesh.n_triangles, mesh.edges.shape[0]
        for sq in (spread(nt, 3), spread(nt, 1)):
            assert np.array_equal(estimators._patch_sums(mesh, sq),
                                  loop_patch_sums(mesh, sq))
        vol_hat, edge_hat = spread(nt, 3), spread(ne, 2)
        want = loop_patch_sums(mesh, mesh.diameters[:, None] ** 2 * vol_hat,
                               edge_hat * mesh.edge_lengths[:, None])
        assert np.array_equal(
            patch_residual_indicators(mesh, vol_hat, edge_hat), np.sqrt(want))


class TestResidualIndicators:
    def test_pure_volume_term(self):
        mesh = reference_triangle()
        space = FeSpace(mesh, 1)
        u0 = ScalarField(space, np.zeros(space.n_dofs))
        eta = residual_eta(u0, lambda x, y: np.ones_like(x))
        # h^2 |f|^2 = 2 * area = 1; all edges are boundary edges
        assert eta[0] == pytest.approx(1.0, rel=1e-13)

    def test_pure_jump_term(self):
        mesh = split_square()
        space = FeSpace(mesh, 1)
        nodal = np.array([0.0, 1.0, 0.0, 2.0])
        fld = ScalarField(space, nodal)
        c = hand_jump(mesh, nodal)
        eta = residual_eta(fld, lambda x, y: np.zeros_like(x))
        # each element: h_E * c^2 * |E| with h_E = |E| = sqrt 2
        expected = np.sqrt(2.0 * c ** 2)
        assert np.allclose(eta, expected, rtol=1e-12)

    def test_both_terms_add_in_squares(self):
        mesh = split_square()
        space = FeSpace(mesh, 1)
        nodal = np.array([0.0, 1.0, 0.0, 2.0])
        fld = ScalarField(space, nodal)
        c = hand_jump(mesh, nodal)
        eta = residual_eta(fld, lambda x, y: np.ones_like(x))
        h2 = 2.0  # both elements have diameter sqrt 2
        expected = np.sqrt(h2 * 0.5 + 2.0 * c ** 2)  # area of each is 1/2
        assert np.allclose(eta, expected, rtol=1e-12)


class TestPatchResidualIndicators:
    def test_hat_weighted_volume(self):
        mesh = reference_triangle()
        space = FeSpace(mesh, 1)
        u0 = ScalarField(space, np.zeros(space.n_dofs))
        eta = patch_residual_eta(u0, lambda x, y: np.ones_like(x))
        # h^2 int phi^2 = 2 * |T| / 6 = 1/6 for each corner
        assert np.allclose(eta, np.sqrt(1.0 / 6.0), rtol=1e-13)

    def test_hat_weighted_jump(self):
        mesh = split_square()
        space = FeSpace(mesh, 1)
        nodal = np.array([0.0, 1.0, 0.0, 2.0])
        fld = ScalarField(space, nodal)
        c = hand_jump(mesh, nodal)
        eta = patch_residual_eta(fld, lambda x, y: np.zeros_like(x))
        # diagonal endpoints: h_E c^2 int phi^2 = sqrt2 c^2 (sqrt2 / 3)
        on_diag = np.sqrt(2.0 * c ** 2 / 3.0)
        assert eta[0] == pytest.approx(on_diag, rel=1e-12)
        assert eta[2] == pytest.approx(on_diag, rel=1e-12)
        assert eta[1] == 0.0 and eta[3] == 0.0


class TestOscillation:
    def test_linear_f_piecewise_constant_projection(self):
        mesh = reference_triangle()
        space = FeSpace(mesh, 1)
        osc = oscillation(space, lambda x, y: x)
        # h |x - 1/3| = sqrt2 * sqrt(1/36)
        assert osc[0] == pytest.approx(np.sqrt(2.0) / 6.0, rel=1e-10)

    @pytest.mark.parametrize("k,deg", [(1, 0), (2, 1), (3, 2), (4, 3)])
    def test_resolved_data_has_zero_oscillation(self, k, deg):
        mesh = bisect(lshape(), [0, 4], 1)
        space = FeSpace(mesh, k)

        def f(x, y):
            return (x + 2 * y) ** deg

        assert np.abs(oscillation(space, f)).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_constant_data_has_exactly_zero_oscillation(self, k):
        # the weights of the 25- and 49-point fine rules (k = 2, 4) do not
        # sum to one in floating point, nor does the projector reproduce a
        # constant to the last bit: constant data must not leave either
        # round-off in osc
        space = FeSpace(graded_lshape(), k)
        osc = oscillation(space, lambda x, y: np.ones_like(x))
        assert np.all(osc == 0.0)

    def test_patch_oscillation_recombines(self):
        mesh = bisect(unit_square_crisscross(), np.arange(4), 2)
        space = FeSpace(mesh, 1)
        osc = oscillation(space, f_sine)
        star = patch_oscillation(space, f_sine)
        manual = np.zeros(mesh.n_vertices)
        for t, tri in enumerate(mesh.triangles):
            for v in tri:
                manual[v] += osc[t] ** 2
        assert np.allclose(star, np.sqrt(manual), rtol=1e-12)

    def test_estimate_computes_oscillation_once(self, monkeypatch):
        mesh = bisect(unit_square_crisscross(), np.arange(4), 2)
        u = solve_poisson(FeSpace(mesh, 2), f_sine)
        calls = []
        real = estimators.oscillation

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(estimators, "oscillation", counted)
        rep = estimate(u, f_sine)
        assert len(calls) == 1
        assert np.array_equal(rep.osc_star,
                              patch_oscillation(u.space, f_sine))

    def test_oscillation_decays_under_refinement(self):
        space_c = FeSpace(bisect(unit_square_crisscross(), np.arange(4), 2), 1)
        fine_mesh = bisect(space_c.mesh, np.arange(space_c.mesh.n_triangles), 2)
        space_f = FeSpace(fine_mesh, 1)
        a = np.sqrt((oscillation(space_c, f_sine) ** 2).sum())
        b = np.sqrt((oscillation(space_f, f_sine) ** 2).sum())
        assert b < 0.3 * a  # second order for smooth data


@pytest.fixture(scope="module")
def report():
    mesh = bisect(unit_square_crisscross(), np.arange(4), 3)
    space = FeSpace(mesh, 1)
    u = solve_poisson(space, f_sine)
    return u, estimate(u, f_sine)


class TestReportAggregation:
    def test_totals_recombine(self, report):
        _, rep = report
        assert rep.eta_delta_total == pytest.approx(
            np.sqrt((rep.eta_delta ** 2).sum()), rel=1e-13)
        assert rep.eta_star_single == pytest.approx(
            np.sqrt((rep.eta_star ** 2).sum()), rel=1e-13)
        # double count: element-major sum over triangle/vertex incidences
        dc = 0.0
        for tri in rep.mesh.triangles:
            for v in tri:
                dc += rep.eta_star[v] ** 2
        assert rep.eta_star_total == pytest.approx(np.sqrt(dc), rel=1e-12)
        assert rep.eta_star_total == pytest.approx(
            np.sqrt((rep.indicator("star") ** 2).sum()), rel=1e-12)

    def test_single_patch_counted_once_per_triangle(self):
        # a lone nonzero patch norm appears m times in the double count,
        # with m the number of incident triangles
        mesh = bisect(unit_square_crisscross(), np.arange(4), 2)
        rep_src = estimate(solve_poisson(FeSpace(mesh, 1), f_sine), f_sine)
        nu = 4  # interior vertex of the criss-cross root
        star = np.zeros(mesh.n_vertices)
        star[nu] = 2.5
        rep = EstimatorReport(
            mesh=mesh, eta_delta=rep_src.eta_delta, eta_star=star,
            eta_res=rep_src.eta_res, eta_res_star=rep_src.eta_res_star,
            osc=rep_src.osc, osc_star=rep_src.osc_star)
        m = sum(1 for tri in mesh.triangles if nu in tri)
        assert m > 1
        assert rep.eta_star_total == pytest.approx(
            np.sqrt(m) * 2.5, rel=1e-13)
        assert rep.eta_star_single == pytest.approx(2.5, rel=1e-13)

    def test_restricted_totals(self, report):
        _, rep = report
        some = np.array([0, 5, 9])
        assert rep.restricted(some) == pytest.approx(
            np.sqrt((rep.eta_delta[some] ** 2).sum()), rel=1e-13)
        full = np.arange(rep.mesh.n_triangles)
        assert rep.restricted(full) == pytest.approx(rep.eta_delta_total)
        assert rep.restricted_osc_star(full) == pytest.approx(
            rep.osc_star_total, rel=1e-13)

    def test_star_marking_indicator(self, report):
        _, rep = report
        per_el = rep.indicator("star")
        t = 7
        manual = np.sqrt((rep.eta_star[rep.mesh.triangles[t]] ** 2).sum())
        assert per_el[t] == pytest.approx(manual, rel=1e-13)
        with pytest.raises(ValueError, match="unknown"):
            rep.indicator("nope")

    def test_guaranteed_bound_on_smooth_problem(self, report):
        u, rep = report
        err = energy_error(u, grad_sine, qdeg=20)
        # reliability with constant one up to oscillation
        assert err <= rep.eta_delta_total + rep.osc_total
        # and the bound is tight
        assert rep.eta_delta_total < 1.3 * err

    def test_residual_families_are_equivalent_estimates(self, report):
        u, rep = report
        err = energy_error(u, grad_sine, qdeg=20)
        assert 1.0 <= rep.eta_res_total / err < 8.0
        assert 1.0 <= rep.eta_res_star_total / err < 20.0


class TestSharedResidualData:
    def test_estimate_evaluates_residual_data_once(self, monkeypatch):
        mesh = bisect(unit_square_crisscross(), np.arange(4), 2)
        space = FeSpace(mesh, 2)
        u = solve_poisson(space, f_sine)
        jump_calls = []
        for name, mod in list(sys.modules.items()):
            real = getattr(mod, "normal_jumps", None)
            if name.startswith("afemflux") and real is not None:
                def spy(*args, real=real, **kwargs):
                    jump_calls.append(args)
                    return real(*args, **kwargs)
                monkeypatch.setattr(mod, "normal_jumps", spy)
        nq = space.rule_fine.points.shape[0]
        assert space.rule_main.points.shape[0] != nq
        fine_points = []

        def load(x, y):
            if x.shape[-1] == nq:
                fine_points.append(x.size)
            return f_sine(x, y)

        for n in (1, 2):
            estimate(u, load)
            assert len(jump_calls) == n
        # per estimate: once for both residual families, once for the
        # oscillation
        assert sum(fine_points) == 2 * 2 * mesh.n_triangles * nq

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("make_mesh", [graded_lshape, jittered_square])
    def test_residual_families_match_unshared_reference(self, make_mesh, k):
        u = solve_poisson(FeSpace(make_mesh(), k), f_sine)
        rep = estimate(u, f_sine)
        ref_res, ref_star = unshared_residual_reference(u, f_sine)
        assert np.array_equal(rep.eta_res, ref_res)
        assert np.array_equal(rep.eta_res_star, ref_star)

    def test_estimate_rejects_flux_of_another_field(self):
        mesh = bisect(unit_square_crisscross(), np.arange(4), 2)
        u = solve_poisson(FeSpace(mesh, 1), f_sine)
        other = ScalarField(u.space, u.coeffs.copy())
        with pytest.raises(ValueError, match="another field"):
            estimate(u, f_sine, flux=equilibrate(other, f_sine))
        flux = equilibrate(u, f_sine)
        assert estimate(u, f_sine, flux=flux).flux is flux
