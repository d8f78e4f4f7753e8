"""Galerkin module tests.

Oracles: hand-assembled P1 stiffness through the edge-vector formula, exact
monomial integrals on the reference triangle for the local projection, and a
test-local tensor-product Gauss rule (Duffy collapse built on numpy's
leggauss, independent of the package quadrature) for error integrals.
"""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from afemflux import galerkin
from afemflux.estimators import estimate
from afemflux.galerkin import (
    FeSpace,
    ScalarField,
    assemble_stiffness,
    edge_points,
    element_values,
    energy_error,
    energy_norm,
    element_batch,
    element_batches,
    element_gradients,
    monomial_exponents,
    monomial_gradients,
    monomial_projection,
    monomial_values,
    normal_jumps,
    physical_points,
    prolong,
    reference_element,
    reference_projector,
    solve_poisson,
)
from afemflux.mesh import Mesh, bisect, lshape, unit_square_crisscross
from afemflux.quadrature import triangle_rule
from test_equilibration import graded_lshape, jittered_square, uniform_square


def interpolate(space, u):
    """Nodal interpolation of a callable u(x, y) on space."""
    X = physical_points(space.mesh, space.ref.nodes)
    vals = u(X[..., 0], X[..., 1])
    coeffs = np.zeros(space.n_dofs)
    coeffs[space.dof_map] = vals
    return ScalarField(space, coeffs)


def u_sine(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def grad_sine(x, y):
    return (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))


def f_sine(x, y):
    return 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)


def duffy(pts_tri, func, n=14):
    """Independent high-order integration over one triangle."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (xg + 1)
    w = 0.5 * wg
    U, V = np.meshgrid(u, u, indexing="ij")
    W = np.outer(w, w) * (1 - U)
    X, Y = U, V * (1 - U)
    p0, p1, p2 = pts_tri
    px = p0[0] + (p1[0] - p0[0]) * X + (p2[0] - p0[0]) * Y
    py = p0[1] + (p1[1] - p0[1]) * X + (p2[1] - p0[1]) * Y
    jac = abs((p1[0] - p0[0]) * (p2[1] - p0[1])
              - (p2[0] - p0[0]) * (p1[1] - p0[1]))
    return float((W * func(px, py)).sum() * jac), np.column_stack(
        [X.ravel(), Y.ravel()]), (W * jac).ravel()


class TestCrissCrossOracle:
    def test_center_value_matches_hand_assembly(self):
        mesh = unit_square_crisscross()
        space = FeSpace(mesh, 1)
        u = solve_poisson(space, lambda x, y: np.ones_like(x))
        # oracle: P1 stiffness K_ij = (e_i . e_j) / (4 A), load |T|/3
        K = np.zeros((5, 5))
        F = np.zeros(5)
        for tri in mesh.triangles:
            p = mesh.points[tri]
            e = np.array([p[2] - p[1], p[0] - p[2], p[1] - p[0]])
            d1, d2 = p[1] - p[0], p[2] - p[0]
            A = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
            for i in range(3):
                for j in range(3):
                    K[tri[i], tri[j]] += e[i] @ e[j] / (4 * A)
                F[tri[i]] += A / 3.0
        center = 4
        expected = F[center] / K[center, center]  # only free unknown
        assert expected == pytest.approx(1.0 / 12.0, rel=1e-14)
        assert u.coeffs[center] == pytest.approx(expected, rel=1e-12)
        assert np.allclose(u.coeffs[space.boundary_dofs], 0.0)

    def test_zero_source_gives_zero(self):
        space = FeSpace(unit_square_crisscross(), 1)
        u = solve_poisson(space, lambda x, y: np.zeros_like(x))
        assert np.allclose(u.coeffs, 0.0)


class TestSpaceStructure:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_dof_count(self, k):
        mesh = bisect(lshape(), np.arange(12), 1)
        space = FeSpace(mesh, k)
        nv, ne, nt = mesh.n_vertices, mesh.edges.shape[0], mesh.n_triangles
        assert space.n_dofs == nv + ne * (k - 1) + nt * (k - 1) * (k - 2) // 2
        # every element sees (k+1)(k+2)/2 distinct dofs
        assert space.dof_map.shape[1] == (k + 1) * (k + 2) // 2
        for row in space.dof_map[:20]:
            assert len(set(row.tolist())) == row.size

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_continuity_across_edges(self, k):
        mesh = bisect(lshape(), [0, 3, 7], 2)
        space = FeSpace(mesh, k)
        rng = np.random.default_rng(3)
        fld = ScalarField(space, rng.standard_normal(space.n_dofs))
        pts = edge_points(space.edge_rule_main)
        et, el = mesh.edge_triangles, mesh.edge_local
        inter = np.nonzero(~mesh.boundary_edge)[0]
        sides = []
        for side in (0, 1):
            vals = np.empty((inter.size, pts.shape[2]))
            for i, e in enumerate(inter):
                t, le = et[e, side], el[e, side]
                V = space.ref.values(pts[le, int(mesh.edge_flips[t, le])])
                vals[i] = fld.coeffs[space.dof_map[t]] @ V.T
            sides.append(vals)
        assert np.allclose(sides[0], sides[1], atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_nodal_interpolation_reproduces_polynomials(self, k):
        mesh = bisect(unit_square_crisscross(), np.arange(4), 1)
        space = FeSpace(mesh, k)

        def poly(x, y):
            return (x + 0.3 * y) ** k + 0.5 * x

        def gpoly(x, y):
            return (k * (x + 0.3 * y) ** (k - 1) + 0.5,
                    0.3 * k * (x + 0.3 * y) ** (k - 1))

        fld = interpolate(space, poly)
        assert energy_error(fld, gpoly) < 1e-12

    def test_quadrature_degrees(self):
        space = FeSpace(unit_square_crisscross(), 3)
        assert space.rule_main.degree >= 8
        assert space.rule_fine.degree >= 10


def scaled_monomials(mesh, els, X, m):
    """The monomials of degree <= m at the points X (t, nq, 2) of the
    elements els, centred at each centroid and divided by its diameter."""
    xh = (X - mesh.centroids[els, None]) / mesh.diameters[els, None, None]
    return monomial_values(monomial_exponents(m), xh[..., 0], xh[..., 1])


def project_on_element(mesh, t, g, m):
    """The L2 projection of g onto P^m on triangle t, by
    `monomial_projection`, as a function of physical points."""
    rule = triangle_rule(2 * m + 4)
    X = physical_points(mesh, rule.points, [t])
    gv = np.broadcast_to(g(X[0, :, 0], X[0, :, 1]), (1, rule.n_points))
    coef = monomial_projection(rule.weights,
                               scaled_monomials(mesh, [t], X, m), gv)[0, :, 0]
    c, h = mesh.centroids[t], mesh.diameters[t]
    return lambda x, y: monomial_values(
        monomial_exponents(m), (x - c[0]) / h, (y - c[1]) / h) @ coef


class TestNormsAndProjection:
    def test_energy_norm_of_linear(self):
        space = FeSpace(unit_square_crisscross(), 1)
        fld = interpolate(space, lambda x, y: x)
        assert energy_norm(fld) == pytest.approx(1.0, rel=1e-13)

    def test_energy_error_against_duffy(self):
        mesh = bisect(unit_square_crisscross(), np.arange(4), 2)
        space = FeSpace(mesh, 1)
        u = solve_poisson(space, f_sine)
        got = energy_error(u, grad_sine, qdeg=24)
        total = 0.0
        for t in range(mesh.n_triangles):
            p = mesh.points[mesh.triangles[t]]
            _, ref_pts, wts = duffy(p, lambda x, y: np.zeros_like(x))
            g = element_gradients(u, ref_pts, np.array([t]))[0]
            X = physical_points(mesh, ref_pts, [t])[0]
            gx, gy = grad_sine(X[:, 0], X[:, 1])
            total += float(((gx - g[:, 0]) ** 2 + (gy - g[:, 1]) ** 2) @ wts)
        assert got == pytest.approx(np.sqrt(total), rel=1e-12)

    def test_projection_exact_normal_equations(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mesh = Mesh.from_arrays(pts, np.array([[0, 1, 2]]))
        proj = project_on_element(mesh, 0, lambda x, y: x ** 2, 1)
        # oracle: exact integrals of monomials over the reference triangle
        M = np.array([[1 / 2, 1 / 6, 1 / 6],
                      [1 / 6, 1 / 12, 1 / 24],
                      [1 / 6, 1 / 24, 1 / 12]])
        rhs = np.array([1 / 12, 1 / 20, 1 / 60])
        c = np.linalg.solve(M, rhs)
        xs = np.array([0.1, 0.3, 0.25])
        ys = np.array([0.2, 0.4, 0.5])
        expected = c[0] + c[1] * xs + c[2] * ys
        assert np.allclose(proj(xs, ys), expected, atol=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_projection_idempotent(self, m):
        mesh = lshape()

        def g(x, y):
            return (0.3 + x - 0.5 * y) ** m

        proj = project_on_element(mesh, 5, g, m)
        p = mesh.points[mesh.triangles[5]]
        xs = p[:, 0].mean() + np.linspace(-0.05, 0.05, 7)
        ys = p[:, 1].mean() + np.linspace(-0.04, 0.04, 7)
        assert np.allclose(proj(xs, ys), g(xs, ys), atol=1e-13)

    @pytest.mark.parametrize("rule_name", ["rule_main", "rule_fine"])
    @pytest.mark.parametrize("make_mesh", [graded_lshape, jittered_square])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_reference_projector_matches_gram_solve(self, k, make_mesh,
                                                    rule_name):
        # one reference matrix gives the values of every element's
        # projection, onto P^k as `verify` takes it and onto P^(k-1) as
        # `oscillation` does
        mesh = make_mesh()
        rule = getattr(FeSpace(mesh, k), rule_name)
        for m in (k - 1, k):
            batch = element_batch(mesh, rule.points)
            fX = f_sine(batch.X[..., 0], batch.X[..., 1])
            mono = scaled_monomials(mesh, batch.els, batch.X, m)
            coef = monomial_projection(rule.weights, mono, fX)[..., 0]
            gram = np.einsum("tqa,ta->tq", mono, coef)
            got = fX @ reference_projector(rule, m).T
            assert np.abs(got - gram).max() <= 1e-12 * np.abs(fX).max()


def loop_powers(x, n):
    """x ** 0..n, each by repeated products from one."""
    out = [np.ones_like(x)]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


class TestKernelsBitForBit:
    """The kernels whose layout changed and whose values must not: the
    monomial tables against a plain loop over the monomials, and the
    mapped points against the product with the strided J^T."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_monomial_tables_match_a_loop_over_monomials(self, k):
        pts = np.random.default_rng(7).uniform(-1.5, 1.5, (37, 25, 2))
        x, y = pts[..., 0], pts[..., 1]
        exps = monomial_exponents(k)
        px, py = loop_powers(x, k), loop_powers(y, k)
        vals = np.zeros(x.shape + (len(exps),))
        grads = np.zeros(x.shape + (len(exps), 2))
        hess = np.zeros(x.shape + (len(exps), 2, 2))
        for j, (a, b) in enumerate(exps):
            vals[..., j] = px[a] * py[b]
            if a:
                grads[..., j, 0] = a * px[a - 1] * py[b]
            if b:
                grads[..., j, 1] = b * px[a] * py[b - 1]
            if a >= 2:
                hess[..., j, 0, 0] = a * (a - 1) * px[a - 2] * py[b]
            if a and b:
                hess[..., j, 0, 1] = hess[..., j, 1, 0] = \
                    a * b * px[a - 1] * py[b - 1]
            if b >= 2:
                hess[..., j, 1, 1] = b * (b - 1) * px[a] * py[b - 2]
        got = monomial_values(exps, x, y)
        assert got.shape == vals.shape and np.array_equal(got, vals)
        got = monomial_gradients(exps, x, y)
        assert got.shape == grads.shape and np.array_equal(got, grads)
        ref = reference_element(k)
        assert np.array_equal(ref.hessians(pts), np.einsum(
            "...acd,aj->...jcd", hess, ref.coeffs))

    @pytest.mark.parametrize("make_mesh", [graded_lshape, jittered_square])
    def test_physical_points_match_the_strided_product(self, make_mesh):
        mesh = make_mesh()
        for deg in (2, 6, 10):
            ref = triangle_rule(deg).points
            for els in (None, np.arange(mesh.n_triangles)[::3],
                        np.array([5])):
                sel = slice(None) if els is None else els
                want = mesh.points[mesh.triangles[sel, 0], None] \
                    + ref @ mesh.jacobians[sel].transpose(0, 2, 1)
                assert np.array_equal(physical_points(mesh, ref, els), want)


class TestElementBatches:
    # the unit square has 4 triangles: batches of 5, 4 and 3 cover
    # n < batch, n = batch and n = batch + 1
    @pytest.mark.parametrize("batch, sizes", [(5, [4]), (4, [4]),
                                              (3, [3, 1])])
    def test_each_element_once_in_order(self, monkeypatch, batch, sizes):
        monkeypatch.setattr(galerkin, "_BATCH", batch)
        mesh = unit_square_crisscross()
        rule = triangle_rule(4)
        X = physical_points(mesh, rule.points)
        got = list(element_batches(mesh, rule.points))
        assert [b.els.size for b in got] == sizes
        assert np.array_equal(np.concatenate([b.els for b in got]),
                              np.arange(4))
        for b in got:
            assert np.array_equal(b.X, X[b.els])

    def test_ids_alone_without_points(self, monkeypatch):
        monkeypatch.setattr(galerkin, "_BATCH", 3)
        got = list(element_batches(unit_square_crisscross()))
        assert [b.els.tolist() for b in got] == [[0, 1, 2], [3]]
        assert all(b.X is None for b in got)

    def test_batch_size_does_not_change_estimators(self, monkeypatch):
        mesh = bisect(unit_square_crisscross(), np.arange(4), 6)
        assert mesh.n_triangles == 256
        space = FeSpace(mesh, 2)

        def estimators():
            rep = estimate(solve_poisson(space, f_sine), f_sine)
            return rep.eta_delta, rep.eta_res, rep.osc

        default = estimators()
        monkeypatch.setattr(galerkin, "_BATCH", 7)
        for a, b in zip(estimators(), default):
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


class TestElementLaplacians:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("make_mesh", [graded_lshape, jittered_square])
    def test_trace_of_the_mapped_hessian(self, make_mesh, k):
        # H : (Ji Ji^T) against the trace of Ji^T H Ji, taken explicitly.
        # The reference Hessians H of the field are summed over the basis
        # as the kernel sums them: that sum cancels to about 1e-12 of its
        # terms at k = 4, in any order, so only the contraction is compared
        space = FeSpace(make_mesh(), k)
        fld = interpolate(space, lambda x, y: np.exp(x) * np.sin(2 * y))
        pts = space.rule_fine.points
        Hb = space.ref.hessians(pts)
        H = (fld.element_coeffs() @ Hb.transpose(1, 0, 2, 3).reshape(
            Hb.shape[1], -1)).reshape(-1, pts.shape[0], 2, 2)
        Ji = space.jac_inv
        want = np.einsum("tac,tqab,tbc->tq", Ji, H, Ji)
        got = galerkin.element_laplacians(fld, pts)
        assert np.all(np.abs(got - want)
                      <= 1e-13 * np.abs(want).max(axis=1, keepdims=True))

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("make_mesh", [graded_lshape, jittered_square])
    def test_laplacian_of_a_quadratic(self, make_mesh, k):
        space = FeSpace(make_mesh(), k)
        fld = interpolate(space, lambda x, y: x * x + y * y)
        lap = galerkin.element_laplacians(fld, space.rule_main.points)
        assert lap == pytest.approx(4.0, rel=1e-10)


def per_element_stiffness(space):
    """The stiffness matrix with each element's matrix formed from its own
    Jacobian, in batches of 2048 elements whose triplets are listed and
    then concatenated: the assembly from before the element classes."""
    rule = space.rule_main
    G = space.ref.gradients(rule.points)
    nq, nl = G.shape[:2]
    Gf = G.reshape(nq * nl, 2)
    wrep = np.repeat(rule.weights, 2)
    rows, cols, vals = [], [], []
    nt = space.mesh.n_triangles
    for lo in range(0, nt, 2048):
        els = np.arange(lo, min(lo + 2048, nt))
        Gp = (Gf @ space.jac_inv[els]).reshape(-1, nq, nl, 2)
        Gr = Gp.transpose(0, 1, 3, 2).reshape(-1, nq * 2, nl)
        K = Gr.transpose(0, 2, 1) @ (Gr * wrep[None, :, None])
        K *= space.mesh.areas[els, None, None]
        dm = space.dof_map[els]
        rows.append(np.repeat(dm, nl, axis=1).ravel())
        cols.append(np.tile(dm, (1, nl)).ravel())
        vals.append(K.ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.n_dofs, space.n_dofs)).tocsr()


class TestStiffness:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("make_mesh", [uniform_square, graded_lshape,
                                           jittered_square])
    def test_class_matrices_match_the_per_element_formula(self, make_mesh,
                                                          k):
        # a member's Jacobian is its class's first element's times 2^d, so
        # its element matrix is the first element's bit for bit; on the
        # graded L-shape classes mix element sizes, on the jittered square
        # each element is its own class
        mesh = make_mesh()
        first, cls, ex = mesh.shape_classes
        assert np.any(ex[first][cls] != ex) == (make_mesh is graded_lshape)
        space = FeSpace(mesh, k)
        got, want = assemble_stiffness(space), per_element_stiffness(space)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("make_mesh", [uniform_square, graded_lshape,
                                           jittered_square])
    def test_built_on_the_class_representatives_alone(self, monkeypatch,
                                                      make_mesh):
        mesh = make_mesh()
        space = FeSpace(mesh, 2)
        want = assemble_stiffness(space)
        first = mesh.shape_classes[0]
        if make_mesh is uniform_square:
            assert first.size <= 8
        elif make_mesh is jittered_square:
            assert first.size == mesh.n_triangles
        calls = []
        real = galerkin._element_stiffness
        monkeypatch.setattr(galerkin, "_element_stiffness", lambda s, els:
                            calls.append(np.array(els)) or real(s, els))
        monkeypatch.setattr(galerkin, "_BATCH", 5)
        got = assemble_stiffness(space)
        assert np.array_equal(np.concatenate(calls), first)
        assert max(c.size for c in calls) <= 5
        assert np.array_equal(got.data, want.data)

    def test_peak_memory_is_bounded_by_the_matrix(self):
        # on the uniform P3 square with 4,096 triangles the per-element
        # assembly, with gradient tables for every element and triplets
        # listed per batch, peaked at 10.3 times the bytes of its matrix;
        # the class table counts here, as the assembly builds it
        mesh = bisect(unit_square_crisscross(), np.arange(4), 10)
        assert mesh.n_triangles == 4096
        space = FeSpace(mesh, 3)
        tracemalloc.start()
        try:
            A = assemble_stiffness(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (A.data.nbytes + A.indices.nbytes
                            + A.indptr.nbytes)


class TestSolverPaths:
    @pytest.mark.parametrize("load", [
        lambda x, y: np.where(x > 0.5, np.nan, 1.0),
        lambda x, y: np.inf])
    def test_non_finite_load_is_rejected_at_a_point(self, load):
        # a non-finite load stops before any solve sees it, and the
        # error names a point where it is not finite
        space = FeSpace(bisect(unit_square_crisscross(), np.arange(4), 4), 1)
        with pytest.raises(ValueError, match="not finite") as err:
            solve_poisson(space, load)
        x, y = map(float, re.search(r"\((.+), (.+)\)",
                                    str(err.value)).groups())
        assert not np.isfinite(load(np.array(x), np.array(y)))

    def test_cg_matches_direct(self, monkeypatch):
        mesh = bisect(unit_square_crisscross(), np.arange(4), 3)
        space = FeSpace(mesh, 2)
        ud = solve_poisson(space, f_sine)
        monkeypatch.setattr(galerkin, "_DIRECT_LIMIT", 1)
        uc = solve_poisson(space, f_sine)
        assert ud.system.report.method == "splu"
        assert uc.system.report.method == "cg"
        assert uc.system.report.iterations > 0
        assert np.allclose(ud.coeffs, uc.coeffs, atol=1e-9)

    def test_galerkin_orthogonality(self):
        mesh = bisect(unit_square_crisscross(), np.arange(4), 2)
        space = FeSpace(mesh, 3)
        u = solve_poisson(space, f_sine)
        A, b = u.system.matrix, u.system.rhs
        r = b - A @ u.coeffs[~space.boundary_dofs]
        fnorm = np.sqrt(duffy(np.array([[0, 0], [1, 0], [0, 1.0]]),
                              lambda x, y: f_sine(x, y) ** 2)[0]
                        + duffy(np.array([[1, 0], [1, 1], [0, 1.0]]),
                                lambda x, y: f_sine(x, y) ** 2)[0])
        scale = fnorm * np.sqrt(A.diagonal())
        assert (np.abs(r) <= 1e-10 * scale).all()

    def test_system_keeps_the_factored_matrix(self, monkeypatch):
        factored = []
        real = galerkin.spla.splu
        monkeypatch.setattr(galerkin.spla, "splu",
                            lambda A: factored.append(A) or real(A))
        u = solve_poisson(FeSpace(graded_lshape(), 2), f_sine)
        assert len(factored) == 1 and u.system.matrix is factored[0]
        assert u.system.matrix.format == "csc"

    def test_solve_report_residual(self):
        space = FeSpace(unit_square_crisscross(), 1)
        u = solve_poisson(space, lambda x, y: np.ones_like(x))
        assert u.system.report.residual < 1e-12
        assert u.system.report.n_unknowns == 1


def turned_jittered_lshape():
    """The graded L-shape with its interior vertices jittered and each
    triangle's vertices turned cyclically so that local edge 0 starts at
    its lower global id on every triangle but the first: all six (local
    edge, flip) groups of `normal_jumps` occur, and (0, 1) holds a single
    element."""
    mesh = graded_lshape()
    rng = np.random.default_rng(7)
    offset = 0.1 * mesh.edge_lengths.min() * rng.uniform(-1, 1,
                                                         mesh.points.shape)
    offset[mesh.boundary_vertex] = 0.0
    turns = np.stack([np.roll(mesh.triangles, -r, axis=1) for r in range(3)],
                     axis=1)
    up = turns[:, :, 1] < turns[:, :, 2]
    # of the turns that start local edge 0 at its lower id, the first on
    # even triangles and the last on odd ones, so that local edges 1 and 2
    # take both orientations
    r = np.where(np.arange(up.shape[0]) % 2, 2 - np.argmax(up[:, ::-1], 1),
                 np.argmax(up, axis=1))
    r[0] = np.argmin(up[0])
    return Mesh(mesh.points + offset, turns[np.arange(r.size), r])


def reference_jumps(fld):
    """Normal jumps edge by edge: on each side, the one-sided reference
    gradients at the edge points pulled back through jac_inv, dotted with
    the outward unit normal."""
    space = fld.space
    mesh = space.mesh
    s = space.edge_rule_main.points
    out = np.zeros((mesh.edges.shape[0], s.size))
    for e in np.flatnonzero(~mesh.boundary_edge):
        lo, hi = mesh.points[mesh.edges[e]]
        X = lo + s[:, None] * (hi - lo)
        for t, le in zip(mesh.edge_triangles[e], mesh.edge_local[e]):
            p = mesh.points[mesh.triangles[t]]
            Ji = space.jac_inv[t]
            G = space.ref.gradients((X - p[0]) @ Ji.T)  # (nq, n_loc, 2)
            g = np.einsum("qjd,j->qd", G, fld.coeffs[space.dof_map[t]]) @ Ji
            a, b = p[(le + 1) % 3], p[(le + 2) % 3]
            out[e] += g @ (np.array([b[1] - a[1], a[0] - b[0]])
                           / np.hypot(*(b - a)))
    return out


class TestNormalJumps:
    def test_two_triangle_hand_oracle(self):
        from afemflux.galerkin import normal_jumps

        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        mesh = Mesh.from_arrays(pts, np.array([[0, 1, 2], [0, 2, 3]]))
        space = FeSpace(mesh, 1)
        nodal = np.array([0.0, 1.0, 0.0, 2.0])
        fld = ScalarField(space, nodal)
        jumps = normal_jumps(fld)
        interior = ~mesh.boundary_edge
        # hand gradients: solve the 2x2 system (p_i - p_0) . g = u_i - u_0
        grads = []
        for tri in mesh.triangles:
            p = mesh.points[tri]
            T = np.array([p[1] - p[0], p[2] - p[0]])
            grads.append(np.linalg.solve(T, nodal[tri][1:] - nodal[tri][0]))
        diag = [e for e, (a, b) in enumerate(mesh.edges)
                if {a, b} == {0, 2}][0]
        assert interior[diag] and interior.sum() == 1
        # sum of one-sided normal derivatives with outward normals
        n0 = np.array([-1.0, 1.0]) / np.sqrt(2.0)  # outward from (0,1,2)
        expected = grads[0] @ n0 + grads[1] @ (-n0)
        assert np.allclose(jumps[diag], expected, atol=1e-13)
        assert np.allclose(jumps[~interior], 0.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_edge_by_edge_reference(self, k):
        mesh = turned_jittered_lshape()
        counts = [int((mesh.edge_flips[:, le] == flip).sum())
                  for le in range(3) for flip in (0, 1)]
        assert min(counts) == 1 and counts[1] == 1
        space = FeSpace(mesh, k)
        fld = ScalarField(space, np.random.default_rng(k).standard_normal(
            space.n_dofs))
        jumps = normal_jumps(fld)
        want = reference_jumps(fld)
        assert np.abs(jumps - want).max() <= 1e-13 * np.abs(want).max()
        assert not jumps[mesh.boundary_edge].any()

    def test_smooth_field_jump_shrinks(self):
        meshes = [bisect(unit_square_crisscross(), np.arange(4), b)
                  for b in (2, 4)]
        tots = []
        for m in meshes:
            space = FeSpace(m, 2)
            fld = interpolate(space, u_sine)
            from afemflux.galerkin import normal_jumps
            jumps = normal_jumps(fld)
            er = space.edge_rule_main
            sq = (jumps ** 2) @ er.weights * m.edge_lengths
            tots.append(float(np.sqrt(sq[~m.boundary_edge].sum())))
        assert tots[1] < 0.5 * tots[0]


class TestTransfer:
    def test_prolong_preserves_field(self):
        coarse_mesh = lshape()
        fine_mesh = bisect(coarse_mesh, [0, 1, 2, 3, 4], 2)
        for k in (1, 2, 3):
            cs = FeSpace(coarse_mesh, k)
            fs = FeSpace(fine_mesh, k)
            rng = np.random.default_rng(k)
            fld = ScalarField(cs, rng.standard_normal(cs.n_dofs))
            fine = prolong(fld, fs)
            assert energy_norm(fine) == pytest.approx(energy_norm(fld), rel=1e-12)
            # same function: L2 norms over the mesh agree too
            def l2(f):
                r = f.space.rule_main
                v = element_values(f, r.points)
                return float(np.einsum("q,tq,t->", r.weights, v * v,
                                       f.space.mesh.areas))
            assert l2(fine) == pytest.approx(l2(fld), rel=1e-12)

    def test_nested_solutions_pythagoras(self):
        # polynomial data keeps every quadrature exact, so the orthogonality
        # identity |u-u_l|^2 = |u-u_m|^2 + |u_m-u_l|^2 holds to round-off
        def f_poly(x, y):
            return 2 * (y * (1 - y) + x * (1 - x))

        def grad_poly(x, y):
            return ((1 - 2 * x) * y * (1 - y), x * (1 - x) * (1 - 2 * y))

        mesh_l = bisect(unit_square_crisscross(), np.arange(4), 2)
        mesh_m = bisect(mesh_l, np.arange(mesh_l.n_triangles), 2)
        sl = FeSpace(mesh_l, 1)
        sm = FeSpace(mesh_m, 1)
        ul = solve_poisson(sl, f_poly)
        um = solve_poisson(sm, f_poly)
        el = energy_error(ul, grad_poly)
        em = energy_error(um, grad_poly)
        assert em < el  # refinement never increases the energy error
        diff = energy_norm(um - prolong(ul, sm))
        assert el ** 2 == pytest.approx(em ** 2 + diff ** 2, rel=1e-10)
