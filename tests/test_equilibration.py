"""Equilibration tests.

The patch solver is checked against physics rather than against itself:
divergence conditions are integrated with a test-local quadrature and a
finite-difference divergence, jump and trace conditions are sampled
pointwise, and minimality is verified through null-space orthogonality.
"""

import dataclasses
import re
import sys
import weakref

import numpy as np
import pytest
from scipy.linalg import null_space

from afemflux import equilibration, mesh as mesh_module
from afemflux.equilibration import (
    EquilibratedFlux,
    EquilibrationError,
    FluxField,
    _divergence_rhs,
    _edge_rhs,
    _shape_blocks,
    _tril_inverse,
    equilibrate,
    gradient_flux,
    prager_synge_terms,
    rt_dim,
    rt_divergence_matrix,
    rt_values,
    verify_equilibration,
)
from afemflux.galerkin import (
    FeSpace,
    ScalarField,
    element_gradients,
    element_laplacians,
    energy_error,
    monomial_exponents,
    monomial_values,
    normal_jumps,
    physical_points,
    solve_poisson,
)
from afemflux.mesh import Mesh, bisect, lshape, unit_square_crisscross
from afemflux.quadrature import triangle_rule

# the wording of an EquilibrationError raised on a u_h that is not the
# Galerkin solution; it names the vertex and the scaled residual
GALERKIN = (r"^patch problem at vertex \d+: scaled residual \S+ exceeds "
            r"1\.0e-08; the input field does not satisfy Galerkin "
            r"orthogonality$")


def f_sine(x, y):
    return 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)


def grad_sine(x, y):
    return (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))


def f_poly(x, y):
    return 2 * (y * (1 - y) + x * (1 - x))


def grad_poly(x, y):
    return ((1 - 2 * x) * y * (1 - y), x * (1 - x) * (1 - 2 * y))


def tri_gauss(n=10):
    """Test-local tensor rule on the reference triangle."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (xg + 1)
    w = 0.5 * wg
    U, V = np.meshgrid(u, u, indexing="ij")
    W = (np.outer(w, w) * (1 - U)).ravel()
    return np.column_stack([U.ravel(), (V * (1 - U)).ravel()]), W


def flux_at_phys(flux, t, pts):
    """Evaluate a FluxField at physical points of one element."""
    mesh = flux.mesh
    p = mesh.points[mesh.triangles[t]]
    J = np.column_stack([p[1] - p[0], p[2] - p[0]])
    ref = np.linalg.solve(J, (pts - p[0]).T).T
    return flux.element_values(ref, np.array([t]))[0]


@dataclasses.dataclass(frozen=True)
class PatchSolution:
    """One patch problem in raw (unwhitened) coordinates: the tests'
    independent reference, lstsq on the full, unreduced patch system.

    matrix acts on the stacked per-element flux coefficients; rows are the
    divergence moments (n_div per element), then k+1 jump moments per spoke
    edge, then k+1 trace moments per constrained rim edge.
    """

    vertex: int
    elements: np.ndarray
    spoke_edges: np.ndarray
    trace_edges: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray
    mass: np.ndarray  # (m, N, N) block-diagonal metric
    z: np.ndarray
    coeffs: np.ndarray  # (m, N)
    eta: float
    residual: float


def vertex_patch(mesh, nu):
    """The patch of vertex nu: its elements and the slot of nu in each, in
    triangle-id order, and its interior spokes in edge-id order."""
    ptr, ind, slot = mesh._vertex_triangles
    spokes = np.nonzero((mesh.edges == nu).any(axis=1)
                        & ~mesh.boundary_edge)[0]
    return ind[ptr[nu]:ptr[nu + 1]], slot[ptr[nu]:ptr[nu + 1]], spokes


def local_equilibrate(u_h: ScalarField, f, nu: int) -> PatchSolution:
    """Solve the single patch problem of vertex nu and return its pieces."""
    space = u_h.space
    mesh = space.mesh
    k = space.degree
    n_p = len(monomial_exponents(k))
    N = rt_dim(k)
    K1 = k + 1
    nu = int(nu)
    els, slots, spokes = vertex_patch(mesh, nu)
    msize = els.size

    part = _shape_blocks(space, els)
    rdiv = _divergence_rhs(u_h, f, els)
    Jr = _edge_rhs(space, normal_jumps(u_h))[spokes]

    rim = mesh.edge_of_triangle[els, slots]
    trace_edges = rim[~mesh.boundary_edge[rim]]
    R = msize * n_p + (spokes.size + trace_edges.size) * K1
    Araw = np.zeros((R, msize * N))
    Awht = np.zeros((R, msize * N))
    g = np.zeros(R)

    for j in range(msize):
        rows = slice(j * n_p, (j + 1) * n_p)
        cols = slice(j * N, (j + 1) * N)
        Araw[rows, cols] = part["Draw"][j]
        Awht[rows, cols] = part["Dt"][j]
        g[rows] = rdiv[j, slots[j]]

    row = msize * n_p
    for i, e in enumerate(spokes):
        var = 0 if mesh.edges[e, 0] == nu else 1
        g[row:row + K1] = Jr[i, var]
        for side in (0, 1):
            t = mesh.edge_triangles[e, side]
            le = mesh.edge_local[e, side]
            j = int(np.searchsorted(els, t))
            Araw[row:row + K1, j * N:(j + 1) * N] = part["Traw"][j, le]
            Awht[row:row + K1, j * N:(j + 1) * N] = part["Trt"][j, le]
        row += K1

    rim_imp = ~mesh.boundary_edge[rim]
    for j in range(msize):
        if not rim_imp[j]:
            continue
        Araw[row:row + K1, j * N:(j + 1) * N] = part["Traw"][j, slots[j]]
        Awht[row:row + K1, j * N:(j + 1) * N] = part["Trt"][j, slots[j]]
        row += K1

    z, *_ = np.linalg.lstsq(Awht, g, rcond=1e-12)
    resid = float(np.abs(Awht @ z - g).max())
    zc = z.reshape(msize, N)
    coeffs = np.einsum("tij,tj->ti", part["LiT"], zc)
    return PatchSolution(nu, els, spokes, trace_edges, Araw, g,
                         part["mass"], z, coeffs,
                         float(np.linalg.norm(z)), resid)


def fd_divergence(flux, t, pts, delta=1e-5):
    dx = np.array([delta, 0.0])
    dy = np.array([0.0, delta])
    vx = flux_at_phys(flux, t, pts + dx) - flux_at_phys(flux, t, pts - dx)
    vy = flux_at_phys(flux, t, pts + dy) - flux_at_phys(flux, t, pts - dy)
    return (vx[:, 0] + vy[:, 1]) / (2 * delta)


class TestLocalBasis:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_dimension(self, k):
        x = np.random.default_rng(0).uniform(-0.5, 0.5, (40, 2))
        V = rt_values(k, x)
        assert V.shape == (40, rt_dim(k), 2)
        # linear independence on scattered points
        flat = V.transpose(0, 2, 1).reshape(40 * 2, rt_dim(k))
        assert np.linalg.matrix_rank(flat) == rt_dim(k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_divergence_matrix_against_differences(self, k):
        rng = np.random.default_rng(k)
        pts = rng.uniform(-0.4, 0.4, (25, 2))
        d = 1e-6
        vx = rt_values(k, pts + [d, 0]) - rt_values(k, pts - [d, 0])
        vy = rt_values(k, pts + [0, d]) - rt_values(k, pts - [0, d])
        div_fd = (vx[..., 0] + vy[..., 1]) / (2 * d)
        from afemflux.galerkin import monomial_exponents, monomial_values
        mono = monomial_values(monomial_exponents(k), pts[:, 0], pts[:, 1])
        div_exact = mono @ rt_divergence_matrix(k)  # h = 1 here
        assert np.allclose(div_fd, div_exact, atol=5e-8)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_normal_trace_degree_on_edges(self, k):
        # along any straight segment the normal component of every basis
        # field is a degree <= k polynomial of the arc parameter
        s = np.linspace(0, 1, k + 4)
        a, b = np.array([-0.3, 0.1]), np.array([0.4, 0.35])
        pts = a + s[:, None] * (b - a)
        tang = b - a
        n = np.array([tang[1], -tang[0]]) / np.hypot(*tang)
        tr = rt_values(k, pts) @ n  # (ns, N)
        V = np.vander(s, k + 1)
        coef, *_ = np.linalg.lstsq(V, tr, rcond=None)
        assert np.allclose(V @ coef, tr, atol=1e-12)


class TestPatchPhysics:
    """The single-patch solver against quadrature oracles."""

    def setup_method(self):
        self.mesh = bisect(lshape(), np.arange(12), 3)
        self.space = FeSpace(self.mesh, 2)
        self.u = solve_poisson(self.space, f_sine)

    def interior_vertex(self):
        mesh = self.mesh
        for nu in range(mesh.n_vertices):
            if mesh.boundary_vertex[nu]:
                continue
            els, slots, _ = vertex_patch(mesh, nu)
            if not mesh.boundary_edge[mesh.edge_of_triangle[els, slots]].any():
                return nu
        raise AssertionError("no fully interior patch")

    def check_patch(self, nu):
        mesh, space, u = self.mesh, self.space, self.u
        k = space.degree
        ps = local_equilibrate(u, f_sine, nu)
        q = FluxField(mesh, k, np.zeros((mesh.n_triangles, rt_dim(k))))
        q.coeffs[ps.elements] = ps.coeffs

        assert ps.residual < 1e-9

        # divergence condition, moment by moment, with independent
        # quadrature and finite-difference divergence
        ref, W = tri_gauss(8)
        from afemflux.galerkin import monomial_exponents, monomial_values
        exps = monomial_exponents(k)
        for j, t in enumerate(ps.elements):
            tri = mesh.triangles[t]
            slot = int(np.nonzero(tri == nu)[0][0])
            p = mesh.points[tri]
            X = p[0] + ref @ np.stack([p[1] - p[0], p[2] - p[0]])
            twoA = abs(np.linalg.det(np.column_stack([p[1] - p[0],
                                                      p[2] - p[0]])))
            dv = fd_divergence(q, t, X)
            lam = np.column_stack([1 - ref.sum(1), ref[:, 0], ref[:, 1]])
            hat = lam[:, slot]
            lap = element_laplacians(u, ref, np.array([t]))[0]
            resid = dv + hat * (f_sine(X[:, 0], X[:, 1]) + lap)
            c = (p.mean(0), float(mesh.diameters[t]))
            mono = monomial_values(exps, (X[:, 0] - c[0][0]) / c[1],
                                   (X[:, 1] - c[0][1]) / c[1])
            moments = (W * resid) @ mono * twoA
            assert np.abs(moments).max() < 2e-7  # fd-limited accuracy

        # jump condition on every spoke, sampled at Gauss points
        sg, wg = np.polynomial.legendre.leggauss(k + 3)
        s = 0.5 * (sg + 1)
        for e in ps.spoke_edges:
            lo, hi = mesh.edges[e]
            pl, ph = mesh.points[lo], mesh.points[hi]
            pts = pl + s[:, None] * (ph - pl)
            hat = (1 - s) if lo == nu else s
            total = np.zeros(s.size)
            uh_jump = np.zeros(s.size)
            for side in (0, 1):
                t = mesh.edge_triangles[e, side]
                tri = mesh.triangles[t]
                third = [v for v in tri if v not in (lo, hi)][0]
                tang = ph - pl
                nrm = np.array([tang[1], -tang[0]]) / np.hypot(*tang)
                mid = 0.5 * (pl + ph)
                if nrm @ (mesh.points[third] - mid) > 0:
                    nrm = -nrm  # make it outward for this side
                total += flux_at_phys(q, t, pts) @ nrm
                p = mesh.points[tri]
                J = np.column_stack([p[1] - p[0], p[2] - p[0]])
                refp = np.linalg.solve(J, (pts - p[0]).T).T
                g = element_gradients(u, refp, np.array([t]))[0]
                uh_jump += g @ nrm
            moments = (wg * 0.5 * (total + hat * uh_jump)) @ \
                np.vander(s, k + 1)
            assert np.abs(moments).max() < 1e-10

        # zero normal trace on the constrained rim, pointwise
        for e in ps.trace_edges:
            lo, hi = mesh.edges[e]
            pts = mesh.points[lo] + s[:, None] * (mesh.points[hi]
                                                  - mesh.points[lo])
            t = [tt for tt in mesh.edge_triangles[e] if tt in ps.elements][0]
            tang = mesh.points[hi] - mesh.points[lo]
            nrm = np.array([tang[1], -tang[0]])
            vals = flux_at_phys(q, t, pts) @ (nrm / np.hypot(*tang))
            assert np.abs(vals).max() < 1e-10

        # minimality: solution is mass-orthogonal to the constraint kernel
        Z = null_space(ps.matrix, rcond=1e-10)
        Mblk = np.zeros_like(ps.matrix.T @ ps.matrix)
        N = rt_dim(self.space.degree)
        for j in range(ps.elements.size):
            Mblk[j * N:(j + 1) * N, j * N:(j + 1) * N] = ps.mass[j]
        qflat = ps.coeffs.ravel()
        if Z.size:
            assert np.abs(Z.T @ (Mblk @ qflat)).max() < 1e-10 * max(
                1.0, float(np.abs(qflat).max()))

        # eta is the true L2 norm of the patch field
        sq = 0.0
        for t in ps.elements:
            p = self.mesh.points[self.mesh.triangles[t]]
            twoA = abs(np.linalg.det(np.column_stack([p[1] - p[0],
                                                      p[2] - p[0]])))
            X = p[0] + ref @ np.stack([p[1] - p[0], p[2] - p[0]])
            v = flux_at_phys(q, t, X)
            sq += float((W * (v * v).sum(1)).sum() * twoA)
        assert ps.eta == pytest.approx(np.sqrt(sq), rel=1e-10)

    def test_interior_patch(self):
        self.check_patch(self.interior_vertex())

    def test_boundary_patch(self):
        nu = int(np.nonzero(self.mesh.boundary_vertex)[0][0])
        self.check_patch(nu)

    def test_reentrant_corner_patch(self):
        corner = None
        for i, (x, y) in enumerate(self.mesh.points):
            if abs(x) < 1e-14 and abs(y) < 1e-14:
                corner = i
        self.check_patch(corner)


def uniform_square():
    """Crisscross square bisected uniformly: many exactly similar patches."""
    return bisect(unit_square_crisscross(), np.arange(4), 5)


def graded_lshape():
    return bisect(bisect(lshape(), np.arange(12), 2), [0, 5], 2)


def jittered_square():
    """The uniform square with its interior vertices moved by a seeded
    offset: no two elements share a shape, so no patch shares a class."""
    mesh = uniform_square()
    rng = np.random.default_rng(3)
    step = 0.1 * mesh.edge_lengths.min()
    offset = step * rng.uniform(-1, 1, mesh.points.shape)
    offset[mesh.boundary_vertex] = 0.0
    return Mesh(mesh.points + offset, mesh.triangles)


def trapezoid():
    """Three triangles, the outer two translates of each other.  Each
    outer one alone forms the patch of a domain corner, with the corner at
    a different local slot, so only the slot tells their patches apart."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.5, 1.0],
                    [1.5, 1.0]])
    return Mesh.from_arrays(pts, np.array([[0, 1, 3], [1, 4, 3], [1, 2, 4]]))


def element_class_names(k, keys):
    """The `ElementBlocks.shapes` names of element classes with the
    `Mesh.shape_keys` rows keys at degree k."""
    return [np.concatenate([[k], row]).astype(np.int64).tobytes()
            for row in keys]


def spy_shape_blocks(monkeypatch):
    """The element ids of each `_shape_blocks` call from now on."""
    calls = []
    real = equilibration._shape_blocks
    monkeypatch.setattr(equilibration, "_shape_blocks", lambda space, els:
                        calls.append(np.array(els)) or real(space, els))
    return calls


def equilibrated(mesh, k):
    return equilibrate(solve_poisson(FeSpace(mesh, k), f_sine), f_sine)


def whitened_system(u, f, nu):
    """The full patch system of vertex nu, `local_equilibrate`'s raw one
    whitened by the element mass: divergence, jump and rim rows over the
    stacked whitened coordinates of the patch's elements.  Returns the
    patch solution, the matrix, the inverse Cholesky factors of the
    masses and the rows that stay when, on a fully interior patch, the
    constant-divergence row of the first element (in triangle-id order) is
    dropped."""
    ps = local_equilibrate(u, f, nu)
    m = ps.elements.size
    N = rt_dim(u.space.degree)
    Li = np.linalg.inv(np.linalg.cholesky(ps.mass))
    A = np.concatenate([ps.matrix[:, j * N:(j + 1) * N] @ Li[j].T
                        for j in range(m)], axis=1)
    keep = np.ones(ps.rhs.size, dtype=bool)
    if ps.spoke_edges.size == m and ps.trace_edges.size == m:
        keep[0] = False
    return ps, A, Li, keep


def pinned_reference(u):
    """Sum of the patch corrections solved from `whitened_system`, the
    dropped row left out, minimal-norm solution by lstsq."""
    mesh, k = u.space.mesh, u.space.degree
    N = rt_dim(k)
    q = np.zeros((mesh.n_triangles, N))
    for nu in range(mesh.n_vertices):
        ps, A, Li, keep = whitened_system(u, f_sine, nu)
        z = np.linalg.lstsq(A[keep], ps.rhs[keep], rcond=None)[0]
        q[ps.elements] += np.einsum("tji,tj->ti", Li,
                                    z.reshape(ps.elements.size, N))
    return FluxField(mesh, k, q)


def unreduced_reference(u):
    """w_delta and the patch residuals from dense per-patch solves of the
    unreduced systems of `whitened_system`: the minimal-norm solution of
    the rows that stay by lstsq, each element's part turned into the
    rotated coordinates of its class (Q^T of `_shape_blocks`), and the
    largest residual of any row, the dropped one included."""
    mesh, k = u.space.mesh, u.space.degree
    N = rt_dim(k)
    Q = _shape_blocks(u.space, np.arange(mesh.n_triangles))["Q"]
    w = np.zeros((mesh.n_triangles, N))
    resid = np.empty(mesh.n_vertices)
    for nu in range(mesh.n_vertices):
        ps, A, _, keep = whitened_system(u, f_sine, nu)
        z = np.linalg.lstsq(A[keep], ps.rhs[keep], rcond=None)[0]
        resid[nu] = np.abs(A @ z - ps.rhs).max()
        w[ps.elements] += np.einsum("tji,tj->ti", Q[ps.elements],
                                    z.reshape(ps.elements.size, N))
    return w, resid


def jittered_workload_mesh(n_triangles=256, scale=0.2, seed=0):
    """The mesh of the jittered benchmark workload (perfbench/workloads.py,
    `jittered_mesh`), at a test size: the crisscross square bisected
    uniformly to n_triangles, each interior vertex moved by a seeded offset
    of length at most scale * h_min, drawn uniformly from that disc."""
    depth = int(np.log2(n_triangles // 4))
    fine = bisect(unit_square_crisscross(), np.arange(4), depth)
    rng = np.random.default_rng(seed)
    nv = fine.n_vertices
    radius = scale * float(fine.edge_lengths.min()) * np.sqrt(rng.random(nv))
    angle = 2.0 * np.pi * rng.random(nv)
    offset = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    offset[fine.boundary_vertex] = 0.0
    return Mesh(fine.points + offset, fine.triangles)


def side_by_side(a, b):
    """One mesh that holds meshes a and b, b's vertices numbered after a's."""
    return Mesh(np.concatenate([a.points, b.points]),
                np.concatenate([a.triangles, b.triangles + a.n_vertices]))


def doubled(u):
    """u's problem solved on two coincident copies of its mesh, where each
    patch class has twice the patches it has on the mesh alone, factored
    once and solved as the columns of one right-hand side."""
    mesh = u.space.mesh
    return solve_poisson(FeSpace(side_by_side(mesh, mesh), u.space.degree),
                         f_sine)


def tripled(u):
    """u's problem solved on three coincident copies of its mesh, as in
    `doubled`."""
    mesh = u.space.mesh
    return solve_poisson(FeSpace(side_by_side(side_by_side(mesh, mesh), mesh),
                                 u.space.degree), f_sine)


def assert_matches_local_solves(fl):
    u, mesh = fl.u_h, fl.mesh
    k = u.space.degree
    acc = np.zeros_like(fl.q_delta.coeffs)
    eta = np.empty(mesh.n_vertices)
    for nu in range(mesh.n_vertices):
        ps = local_equilibrate(u, f_sine, nu)
        acc[ps.elements] += ps.coeffs
        eta[nu] = ps.eta
    assert np.abs(fl.eta_star - eta).max() < 1e-11
    assert (FluxField(mesh, k, acc) - fl.q_delta).norm() < 1e-11
    assert fl.eta_delta_total == pytest.approx(
        FluxField(mesh, k, acc).norm(), rel=1e-11)


class TestGlobalReconstruction:
    def test_patch_sum_equals_global(self):
        mesh = bisect(lshape(), [0, 5], 2)
        space = FeSpace(mesh, 2)
        u = solve_poisson(space, f_sine)
        fl = equilibrate(u, f_sine)
        acc = np.zeros_like(fl.q_delta.coeffs)
        for nu in range(mesh.n_vertices):
            ps = local_equilibrate(u, f_sine, nu)
            acc[ps.elements] += ps.coeffs
            assert fl.eta_star[nu] == pytest.approx(ps.eta, abs=1e-11)
        assert np.allclose(acc, fl.q_delta.coeffs, atol=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("make_mesh", [uniform_square, graded_lshape,
                                           jittered_square])
    def test_shared_patches_match_local_solves(self, make_mesh, k):
        # patches of one exact class share a factored Gram matrix, and each
        # patch of the jittered mesh is a class of one; the independent
        # per-patch lstsq solves must give the same flux.  The
        # flux is compared in L2: its monomial coefficients amplify
        # round-off by the conditioning of the element mass matrices
        # (1e-9 at k = 4 for either solver).
        fl = equilibrated(make_mesh(), k)
        if make_mesh is jittered_square:
            assert fl.shared_patches == fl.patch_classes == 0
        else:
            assert 0 < fl.patch_classes < fl.shared_patches
        rep = fl.verify(f_sine)
        assert rep.ok
        assert rep.patch_residual < 1e-12
        assert_matches_local_solves(fl)

    def test_slot_separates_patch_classes(self):
        fl = equilibrated(trapezoid(), 2)
        assert fl.shared_patches == 0
        assert_matches_local_solves(fl)

    def test_congruent_patches_share_a_class(self):
        # patches listed counterclockwise from the first element of each
        # fan: in triangle-id order 44 of the 81 patches of the uniform
        # square shared a class, for every degree
        fl = equilibrated(uniform_square(), 2)
        assert fl.shared_patches == 58
        assert_matches_local_solves(fl)

    def test_closed_fans_start_at_their_lowest_id_element(self):
        # the centre of the crisscross square, a closed fan whose rim
        # edges are all free, under every cyclic relabelling of its
        # triangles; and every fully interior patch of the uniform
        # square, whose first element is the one whose constant-divergence
        # row is dropped
        base = unit_square_crisscross()
        for r in range(4):
            mesh = Mesh(base.points, np.roll(base.triangles, r, axis=0))
            (els, _, imposed, *_), link = equilibration._fan_layout(
                np.array([4]), 4, 4, mesh, equilibration._fan_links(mesh))
            assert els[0, 0] == 0
            assert link.all() and not imposed.any()
            c = mesh.centroids[els[0]] - mesh.points[4]
            turn = np.diff(np.unwrap(np.arctan2(c[:, 1], c[:, 0])))
            assert np.allclose(turn, np.pi / 2)
        mesh = uniform_square()
        links = equilibration._fan_links(mesh)
        ptr, ind, _ = mesh._vertex_triangles
        m = np.diff(ptr)
        free_rims = np.bincount(np.repeat(np.arange(mesh.n_vertices), m),
                                ~links[4], minlength=mesh.n_vertices)
        inner = ~mesh.boundary_vertex & (free_rims == 0)
        assert inner.sum() > 0
        for mg in np.unique(m[inner]):
            vs = np.nonzero(inner & (m == mg))[0]
            (els, *_), link = equilibration._fan_layout(vs, mg, mg, mesh,
                                                        links)
            assert link.all()
            assert np.array_equal(els[:, 0], ind[ptr[vs]])

    def test_vertex_joining_two_fans(self):
        # two triangles that touch at one vertex: its patch is two fans,
        # listed in the triangle-id order of their starts, while the two
        # corner patches that are translates of each other share a class
        pts = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                        [-1.0, 1.0]])
        fl = equilibrated(Mesh(pts, np.array([[1, 2, 3], [0, 1, 4]])), 3)
        assert fl.shared_patches == 2
        assert fl.verify(f_sine).ok
        assert_matches_local_solves(fl)

    @pytest.mark.parametrize("k", [2, 3])
    def test_vertex_joining_fans_of_one_and_two(self, k):
        # the origin joins a one-triangle fan, listed first by its lower
        # id, and a two-triangle fan (m = 3, s = 1): its one spoke sits at
        # the second position, not at the first
        pts = np.array([[0.0, 0.0], [-0.5, -1.0], [0.5, -1.0], [1.0, 0.0],
                        [0.0, 1.0], [-1.0, 0.0]])
        mesh = Mesh(pts, np.array([[0, 1, 2], [0, 3, 4], [0, 4, 5]]))
        (els, *_, pos, _), link = equilibration._fan_layout(
            np.array([0]), 3, 1, mesh, equilibration._fan_links(mesh))
        assert els.tolist() == [[0, 1, 2]]
        assert link.tolist() == [[False, True, False]]
        assert pos.tolist() == [[[1, 2]]]
        fl = equilibrated(mesh, k)
        assert fl.verify(f_sine).ok
        assert_matches_local_solves(fl)

    def test_patch_beyond_the_fan_walk_raises(self):
        # overlapping triangles: a closed fan around the origin and one
        # more triangle at it, which no walk around the origin reaches
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                        [0.0, -1.0], [2.0, 0.5], [2.0, -0.5]])
        mesh = Mesh(pts, np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4],
                                   [0, 4, 1], [0, 6, 5]]))
        with pytest.raises(EquilibrationError, match="vertex 0 "):
            equilibrated(mesh, 2)

    @pytest.mark.parametrize("k", [1, 3])
    def test_cache_leaves_the_flux_unchanged(self, monkeypatch, k):
        # a second call on the same u_h finds every element block it needs
        # in the cache and builds none; cold and warm give the same bits
        u = solve_poisson(FeSpace(graded_lshape(), k), f_sine)
        cold = equilibrate(u, f_sine)
        assert cold.shared_patches > 0
        cache = equilibration.ElementBlocks()
        first = equilibrate(u, f_sine, cache=cache)
        calls = spy_shape_blocks(monkeypatch)
        warm = equilibrate(u, f_sine, cache=cache)
        assert calls == []
        monkeypatch.undo()
        for fl in (first, warm):
            assert (fl.patch_classes, fl.shared_patches) == \
                (cold.patch_classes, cold.shared_patches)
            for name in ("w_delta", "eta_delta", "eta_star",
                         "patch_residuals"):
                assert np.array_equal(getattr(fl, name), getattr(cold, name))
            assert np.array_equal(fl.q_delta.coeffs, cold.q_delta.coeffs)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_classes_of_one_two_and_three_agree_to_round_off(self, k):
        # on the jittered square every patch is alone in its class; on two
        # and three coincident copies of it each class has two and three
        # patches, whose Gram matrix is factored once and solved for all of
        # them as columns.  Each copy agrees with the mesh alone to
        # round-off, not bit for bit
        u = solve_poisson(FeSpace(jittered_square(), k), f_sine)
        one = equilibrate(u, f_sine)
        assert one.shared_patches == one.patch_classes == 0
        nt, nv = u.space.mesh.n_triangles, u.space.mesh.n_vertices
        for n, copies in ((2, doubled(u)), (3, tripled(u))):
            fl = equilibrate(copies, f_sine)
            assert (fl.patch_classes, fl.shared_patches) == (nv, n * nv)
            for c in range(n):
                assert np.abs(fl.eta_delta[c * nt:(c + 1) * nt]
                              - one.eta_delta).max() \
                    <= 1e-11 * one.eta_delta.max()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("make_mesh", [jittered_workload_mesh,
                                           graded_lshape])
    def test_condensed_solve_matches_unreduced_lstsq(self, make_mesh, k):
        # the divergence and rim rows condensed out element by element,
        # against dense lstsq on the unreduced patch systems, on the mesh
        # itself and on two and three coincident copies of it, where every
        # patch shares its class
        u = solve_poisson(FeSpace(make_mesh(), k), f_sine)
        w, resid = unreduced_reference(u)
        nt, nv = u.space.mesh.n_triangles, u.space.mesh.n_vertices
        scale = np.linalg.norm(w, axis=1).max()
        for n, v in ((1, u), (2, doubled(u)), (3, tripled(u))):
            fl = equilibrate(v, f_sine)
            assert (fl.shared_patches == n * nv) == (n > 1)
            for c in range(n):
                wd = fl.w_delta[c * nt:(c + 1) * nt]
                pr = fl.patch_residuals[c * nv:(c + 1) * nv]
                assert np.linalg.norm(wd - w, axis=1).max() <= 1e-11 * scale
                assert np.abs(pr - resid).max() <= 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("make_mesh", [jittered_workload_mesh,
                                           graded_lshape])
    def test_batch_of_mixed_rim_counts_matches_unreduced_lstsq(
            self, monkeypatch, make_mesh, k):
        # one solver group per (elements, spokes) of a patch: a batch holds
        # patches with different numbers of constrained rim edges, fully
        # interior and not, their reduced matrices padded to the widest
        u = solve_poisson(FeSpace(make_mesh(), k), f_sine)
        mesh = u.space.mesh
        groups, mixed = [], []
        fan_layout = equilibration._fan_layout
        monkeypatch.setattr(equilibration, "_fan_layout",
                            lambda vs, mg, sg, *rest: groups.append(
                                (mg, sg)) or fan_layout(vs, mg, sg, *rest))
        assemble = equilibration._assemble_patches

        def spy(layout, frames):
            interior = layout[2].all(axis=1) \
                & (layout[3].shape[1] == layout[0].shape[1])
            rims = np.unique(layout[2].sum(axis=1))
            mixed.append(rims.size > 1 and 0 < interior.sum() < interior.size)
            return assemble(layout, frames)

        monkeypatch.setattr(equilibration, "_assemble_patches", spy)
        fl = equilibrate(u, f_sine)
        monkeypatch.undo()
        elements = np.bincount(mesh.triangles.ravel())
        spokes = np.bincount(mesh.edges[~mesh.boundary_edge].ravel(),
                             minlength=mesh.n_vertices)
        assert sorted(groups) == sorted(set(zip(elements.tolist(),
                                                spokes.tolist())))
        assert any(mixed)
        w, resid = unreduced_reference(u)
        scale = np.linalg.norm(w, axis=1).max()
        assert np.linalg.norm(fl.w_delta - w, axis=1).max() <= 1e-11 * scale
        assert np.abs(fl.patch_residuals - resid).max() <= 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_class_split_across_solver_batches(self, monkeypatch, k):
        # batches of eight patches split classes of the graded L-shape
        # between batches, each part of a class factoring its Gram matrix
        # anew; the flux agrees with the default batching to round-off
        u = solve_poisson(FeSpace(graded_lshape(), k), f_sine)
        heads = []
        real = equilibration._assemble_patches
        monkeypatch.setattr(equilibration, "_assemble_patches",
                            lambda layout, frames: heads.append(
                                layout[0].shape[0]) or real(layout, frames))
        ref = equilibrate(u, f_sine)
        built = sum(heads)
        heads.clear()
        monkeypatch.setattr(equilibration, "_SOLVE_BYTES", 1.0)
        fl = equilibrate(u, f_sine)
        assert fl.shared_patches > 0
        assert sum(heads) > built
        scale = np.linalg.norm(ref.w_delta, axis=1).max()
        assert np.linalg.norm(fl.w_delta - ref.w_delta, axis=1).max() \
            <= 1e-11 * scale
        assert np.abs(fl.patch_residuals - ref.patch_residuals).max() \
            <= 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("make_mesh", [jittered_workload_mesh,
                                           graded_lshape])
    def test_patch_residuals_cover_the_full_system(self, make_mesh, k):
        # u_h perturbed below the tolerance leaves every fully interior
        # patch with a defect of about 1e-10 in its dropped row, which the
        # reduced systems never see; the patch residuals are those of
        # every row of the unreduced systems all the same
        u = solve_poisson(FeSpace(make_mesh(), k), f_sine)
        rng = np.random.default_rng(k)
        free = ~u.space.boundary_dofs
        coeffs = u.coeffs.copy()
        coeffs[free] += 1e-10 * np.abs(coeffs).max() * rng.uniform(
            -1, 1, free.sum())
        bad = ScalarField(u.space, coeffs)
        _, resid = unreduced_reference(bad)
        assert resid.max() > 1e-11
        fl = equilibrate(bad, f_sine)
        assert np.abs(fl.patch_residuals - resid).max() <= 1e-14

    def test_rim_rows_count_in_the_patch_residuals(self, monkeypatch):
        # no patch of the trapezoid is fully interior, and two have a
        # constrained rim edge.  Without the turn back from the rim-rotated
        # coordinates every reduced system is still solved and every
        # divergence row still holds; only the rim rows show the leak
        assert equilibrated(trapezoid(), 2).patch_residuals.max() < 1e-14
        monkeypatch.setattr(equilibration, "_reflect", lambda V, x: x)
        with pytest.raises(EquilibrationError, match="vertex"):
            equilibrated(trapezoid(), 2)

    def test_reduced_system_of_an_interior_patch(self, monkeypatch):
        # P2, the centre of the jittered square, eight elements: three
        # jump rows per spoke, and per element 9 - 3 coordinates left free
        # by the divergence and rim rows, plus the first element's
        # constant divergence.  Its batch may hold wider patches of the
        # same (m, s) group, so its own width is that of its `_columns`,
        # and the columns past it are zero padding
        mesh = jittered_square()
        centre = int(np.argmin(np.abs(mesh.points - 0.5).sum(axis=1)))
        els = np.sort(vertex_patch(mesh, centre)[0])
        assert els.size == 8
        sizes = []
        real = equilibration._assemble_patches

        def spy(layout, frames):
            A = real(layout, frames)
            cols, C = frames[2]
            if layout[0].shape[1] == els.size:
                hit = (np.sort(layout[0], axis=1) == els).all(axis=1)
                for p in np.nonzero(hit)[0]:
                    kept = np.sort(cols[p][cols[p] < C])
                    assert np.array_equal(kept, np.arange(kept.size))
                    assert not A[p, :, kept.size:].any()
                    sizes.append((A.shape[1], kept.size))
            return A

        monkeypatch.setattr(equilibration, "_assemble_patches", spy)
        assert equilibrated(mesh, 2).verify(f_sine).ok
        assert sizes == [(24, 49)]

    def test_halved_and_shifted_copy_shares_every_class(self):
        # a copy of the mesh halved and shifted, with its edge vectors
        # halved exactly, has the same patch classes: on one mesh that
        # holds both, every patch shares its class with its copy, and each
        # class of the original, one patch alone included, is found once
        mesh = uniform_square()
        base = Mesh(mesh.points / 8, mesh.triangles)
        copy = Mesh(base.points / 2 + 0.37, base.triangles)
        both = side_by_side(base, copy)
        alone = equilibrated(base, 2)
        assert 0 < alone.shared_patches < base.n_vertices
        fl = equilibrated(both, 2)
        assert fl.shared_patches == both.n_vertices
        assert fl.patch_classes == alone.patch_classes + base.n_vertices \
            - alone.shared_patches
        assert fl.verify(f_sine).ok

    def test_cache_keeps_only_the_classes_in_use(self):
        # the element classes of the last call, in class order
        cache = equilibration.ElementBlocks()
        square = solve_poisson(FeSpace(uniform_square(), 1), f_sine)
        equilibrate(square, f_sine, cache=cache)
        before = set(cache.shapes)
        lshaped = solve_poisson(FeSpace(graded_lshape(), 1), f_sine)
        equilibrate(lshaped, f_sine, cache=cache)
        mesh = lshaped.space.mesh
        first = mesh.shape_classes[0]
        assert list(cache.shapes) == element_class_names(
            1, mesh.shape_keys(first)[0])
        assert list(cache.shapes.values()) == list(range(first.size))
        assert before - set(cache.shapes)
        for name in ("DQ", "TrQ"):
            assert cache.blocks[name].shape[0] == first.size

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("make_mesh", [graded_lshape, jittered_square])
    def test_element_blocks_carried_across_a_bisection(self, monkeypatch,
                                                       make_mesh, k):
        # the fine mesh keeps the classes of the elements left alone, so a
        # warm cache builds blocks for the new classes alone, and cold and
        # warm give the same bits
        coarse = make_mesh()
        cache = equilibration.ElementBlocks()
        equilibrate(solve_poisson(FeSpace(coarse, k), f_sine), f_sine,
                    cache=cache)
        old = set(cache.shapes)
        assert old == set(element_class_names(k, np.unique(
            coarse.shape_keys()[0], axis=0)))
        u = solve_poisson(FeSpace(bisect(coarse, [0, 9, 30], 1), k), f_sine)
        fine = u.space.mesh
        first = fine.shape_classes[0]
        new = np.array([n not in old for n in
                        element_class_names(k, fine.shape_keys(first)[0])])
        assert 0 < new.sum() < new.size
        cold = equilibrate(u, f_sine)
        calls = spy_shape_blocks(monkeypatch)
        warm = equilibrate(u, f_sine, cache=cache)
        assert np.array_equal(np.concatenate(calls), first[new])
        for name in ("w_delta", "eta_delta", "eta_star", "patch_residuals"):
            assert np.array_equal(getattr(warm, name), getattr(cold, name))
        monkeypatch.undo()
        assert np.array_equal(warm.q_delta.coeffs, cold.q_delta.coeffs)

    def test_element_blocks_never_cross_degrees(self, monkeypatch):
        # the same mesh at another degree has the same element keys; the
        # degree in the class names keeps the blocks apart
        mesh = graded_lshape()
        cache = equilibration.ElementBlocks()
        for k in (1, 2, 1):
            u = solve_poisson(FeSpace(mesh, k), f_sine)
            cold = equilibrate(u, f_sine)
            calls = spy_shape_blocks(monkeypatch)
            warm = equilibrate(u, f_sine, cache=cache)
            monkeypatch.undo()
            assert np.concatenate(calls).size == len(cache.shapes)
            n_p = len(monomial_exponents(k))
            assert cache.blocks["DQ"].shape[1:] == (n_p, n_p)
            assert cache.blocks["TrQ"].shape[1:] == (3, k + 1, rt_dim(k))
            assert np.array_equal(warm.w_delta, cold.w_delta)
            assert np.array_equal(warm.q_delta.coeffs, cold.q_delta.coeffs)

    def test_warm_call_frees_the_old_blocks_before_it_builds(self,
                                                            monkeypatch):
        # one generation of element blocks at a time: the carried classes
        # are gathered into the new arrays, and the old ones are gone by
        # the time the new classes are built
        coarse = jittered_square()
        cache = equilibration.ElementBlocks()
        equilibrate(solve_poisson(FeSpace(coarse, 2), f_sine), f_sine,
                    cache=cache)
        old = [weakref.ref(a) for a in cache.blocks.values()]
        u = solve_poisson(FeSpace(bisect(coarse, [0, 9, 30], 1), 2), f_sine)
        alive = []
        real = equilibration._shape_blocks

        def spy(space, els):
            alive.append([r() is not None for r in old])
            return real(space, els)

        monkeypatch.setattr(equilibration, "_shape_blocks", spy)
        equilibrate(u, f_sine, cache=cache)
        assert alive and alive[0] == [False, False]

    def test_build_that_raises_leaves_the_cache_empty(self, monkeypatch):
        # a build that fails in its second batch leaves no class names
        # behind whose rows were never filled; the next call starts cold
        coarse = jittered_square()
        cache = equilibration.ElementBlocks()
        equilibrate(solve_poisson(FeSpace(coarse, 2), f_sine), f_sine,
                    cache=cache)
        fine = bisect(coarse, np.arange(coarse.n_triangles), 1)
        u = solve_poisson(FeSpace(fine, 2), f_sine)
        calls = []
        real = equilibration._shape_blocks

        def failing(space, els):
            calls.append(els.size)
            if len(calls) == 2:
                raise MemoryError("out of memory in the second batch")
            return real(space, els)

        with monkeypatch.context() as mp:
            mp.setattr(equilibration, "_SOLVE_BYTES", 1)
            mp.setattr(equilibration, "_shape_blocks", failing)
            with pytest.raises(MemoryError):
                equilibrate(u, f_sine, cache=cache)
        assert len(calls) == 2
        assert cache.shapes == {} and cache.blocks == {}
        cold = equilibrate(u, f_sine)
        warm = equilibrate(u, f_sine, cache=cache)
        for name in ("w_delta", "eta_delta", "eta_star", "patch_residuals"):
            assert np.array_equal(getattr(warm, name), getattr(cold, name))
        assert len(cache.shapes) == fine.shape_classes[0].size

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("make_mesh", [graded_lshape, jittered_square])
    def test_cache_keeps_the_triangle_of_the_divergence_blocks(self,
                                                              make_mesh, k):
        # in the rotated coordinates the divergence acts as [R^T 0]: the
        # trailing N - n_p columns of DQ, like the upper triangle of the
        # leading n_p, are round-off of exact zeros, and the cache keeps
        # the leading n_p columns, R^T, bit for bit
        mesh = make_mesh()
        space = FeSpace(mesh, k)
        n_p = len(monomial_exponents(k))
        first = mesh.shape_classes[0]
        DQ = _shape_blocks(space, first)["DQ"]
        R = DQ[..., :n_p]
        scale = 1e-14 * np.abs(R).max(axis=(1, 2))
        assert np.all(np.abs(DQ[..., n_p:]).max(axis=(1, 2)) <= scale)
        assert np.all(np.abs(np.triu(R, 1)).max(axis=(1, 2)) <= scale)
        cache = equilibration.ElementBlocks()
        equilibrate(solve_poisson(space, f_sine), f_sine, cache=cache)
        assert np.array_equal(cache.blocks["DQ"], R)

    def test_jittered_mesh_shares_no_patch(self):
        fl = equilibrated(jittered_square(), 2)
        assert fl.shared_patches == 0
        assert fl.patch_classes == 0
        assert fl.verify(f_sine).ok

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_interior_patches_drop_first_constant_divergence_row(self, k):
        # a perturbation of u_h below the tolerance makes every fully
        # interior patch system inconsistent by about 1e-10, so the solution
        # depends on which redundant row is left out; dropping the first
        # spoke's constant jump moment instead moves q_delta by 4e-9
        # (k = 1) to 8e-7 (k = 3) relative
        u = solve_poisson(FeSpace(uniform_square(), k), f_sine)
        rng = np.random.default_rng(k)
        free = ~u.space.boundary_dofs
        coeffs = u.coeffs.copy()
        coeffs[free] += 1e-10 * np.abs(coeffs).max() * rng.uniform(
            -1, 1, free.sum())
        bad = ScalarField(u.space, coeffs)
        fl = equilibrate(bad, f_sine)
        assert fl.shared_patches > 0
        ref = pinned_reference(bad)
        assert (fl.q_delta - ref).norm() < 1e-11 * ref.norm()
        assert fl.eta_delta_total == pytest.approx(ref.norm(), rel=1e-12)
        # the dropped rows carry the inconsistency into the residuals
        assert fl.patch_residuals.max() > 1e3 * equilibrate(
            u, f_sine).patch_residuals.max()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("make_mesh", [uniform_square, graded_lshape,
                                           jittered_square])
    def test_class_blocks_match_element_blocks(self, make_mesh, k):
        # the blocks of each class's first element, gathered to its members,
        # against the blocks computed on every element; on the graded
        # L-shape classes mix element sizes, so LiT takes its 2^d scale.
        # Blocks are computed on the normalised edge vectors, the class key
        # itself, so they agree bit for bit
        mesh = make_mesh()
        space = FeSpace(mesh, k)
        first, cls, ex = mesh.shape_classes
        d = ex[first][cls] - ex
        assert np.any(d != 0) == (make_mesh is graded_lshape)
        own = _shape_blocks(space, np.arange(mesh.n_triangles))
        shared = _shape_blocks(space, first)
        assert np.array_equal(shared["Dt"][cls], own["Dt"])
        assert np.array_equal(shared["Trt"][cls], own["Trt"])
        assert np.array_equal(np.ldexp(shared["LiTQ"][cls], d[:, None, None]),
                              own["LiT"] @ shared["Q"][cls])

    def test_shape_blocks_are_exact_under_translation(self):
        # at k = 4 the mass matrices' condition (about 5e9) amplifies any
        # round-off of an element's position; blocks formed from absolute
        # coordinates moved by up to 3.7e-12 relative under this shift.
        # Here every coordinate stays in one binade, so the shift leaves
        # the edge vectors, and with them every block, exactly as they were
        mesh = uniform_square()
        base = Mesh(mesh.points / 8, mesh.triangles)
        moved = Mesh(base.points + 0.37, base.triangles)
        edges = [m.points[m.triangles[:, 1:]] - m.points[m.triangles[:, :1]]
                 for m in (base, moved)]
        assert np.array_equal(*edges)
        els = np.arange(mesh.n_triangles)
        a = _shape_blocks(FeSpace(base, 4), els)
        b = _shape_blocks(FeSpace(moved, 4), els)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_one_class_table_per_mesh(self, monkeypatch):
        # the stiffness assembly, the equilibration and the flux
        # coefficients all read the mesh's class table, which is built once
        builds, readers = [], []
        real = mesh_module._row_classes
        monkeypatch.setattr(mesh_module, "_row_classes", lambda key:
                            builds.append(key.shape[0]) or real(key))
        table = Mesh.shape_classes

        def read(mesh):
            readers.append(sys._getframe(1).f_code.co_name)
            return table.__get__(mesh, Mesh)

        monkeypatch.setattr(Mesh, "shape_classes", property(read))
        mesh = graded_lshape()
        fl = equilibrated(mesh, 2)
        assert fl.q_delta.coeffs.shape[0] == mesh.n_triangles
        assert builds == [mesh.n_triangles]
        assert set(readers) == {"assemble_stiffness", "equilibrate",
                                "_flux_coefficients"}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("make_mesh", [uniform_square, jittered_square])
    def test_shape_blocks_built_once_per_class(self, monkeypatch, make_mesh,
                                               k):
        # a handful of classes on the uniform square, one per element on
        # the jittered mesh
        mesh = make_mesh()
        first = mesh.shape_classes[0]
        assert (first.size <= 8 if make_mesh is uniform_square
                else first.size == mesh.n_triangles)
        calls = spy_shape_blocks(monkeypatch)
        fl = equilibrated(mesh, k)
        assert np.array_equal(np.concatenate(calls), first)
        assert fl.verify(f_sine).ok

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_triangular_inverse(self, k):
        mesh = graded_lshape()
        mass = _shape_blocks(FeSpace(mesh, k),
                             np.arange(mesh.n_triangles))["mass"]
        L = np.linalg.cholesky(mass)
        Li = _tril_inverse(L)
        assert np.array_equal(Li, np.tril(Li))
        assert np.abs(L @ Li - np.eye(L.shape[1])).max() <= 1e-14

    def test_class_keys_are_exact(self):
        # one ulp moved at one vertex separates its elements from their
        # copies elsewhere, so fewer patches share a class
        mesh = uniform_square()
        centre = int(np.argmin(np.abs(mesh.points - 0.5).sum(axis=1)))
        moved = mesh.points.copy()
        moved[centre, 0] = np.nextafter(moved[centre, 0], 1.0)
        assert (equilibrated(Mesh(moved, mesh.triangles), 1).shared_patches
                < equilibrated(mesh, 1).shared_patches)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_verification_residuals_vanish(self, k):
        # non-polynomial data: exactness comes from using one rule for both
        # the constraint right-hand sides and the verification projection
        mesh = bisect(lshape(), np.arange(12), 2)
        space = FeSpace(mesh, k)
        u = solve_poisson(space, f_sine)
        fl = equilibrate(u, f_sine)
        rep = fl.verify(f_sine)
        assert rep.ok
        assert rep.div_residual < 1e-10
        assert rep.jump_residual < 1e-10
        assert rep.patch_residual < 1e-12

    def test_verification_reuses_the_flux_jumps(self, monkeypatch):
        # the jump residuals are taken against the jumps the patch problems
        # were solved for, which the flux holds; none are computed again
        fl = equilibrated(graded_lshape(), 2)
        calls = []
        monkeypatch.setattr(equilibration, "normal_jumps", lambda *args:
                            calls.append(args) or normal_jumps(*args))
        assert fl.verify(f_sine).ok
        assert calls == []

    def test_non_finite_field_names_its_vertex(self):
        # a NaN residual fails the tolerance like a large one, at the
        # vertex whose patch holds it
        mesh = bisect(unit_square_crisscross(), np.arange(4), 4)
        u = solve_poisson(FeSpace(mesh, 1), f_sine)
        v = int(np.flatnonzero(~mesh.boundary_vertex)[0])
        coeffs = u.coeffs.copy()
        coeffs[v] = np.nan
        with pytest.raises(EquilibrationError, match="vertex") as err:
            equilibrate(ScalarField(u.space, coeffs), f_sine)
        nu = int(re.search(r"vertex (\d+)", str(err.value)).group(1))
        star = mesh.triangles[(mesh.triangles == v).any(axis=1)]
        assert nu in star

    def test_total_flux_normal_continuity(self):
        mesh = bisect(unit_square_crisscross(), np.arange(4), 3)
        space = FeSpace(mesh, 2)
        u = solve_poisson(space, f_sine)
        sigma = equilibrate(u, f_sine).total_flux()
        s = np.linspace(0.1, 0.9, 5)
        count = 0
        for e in np.nonzero(~mesh.boundary_edge)[0][::7]:
            lo, hi = mesh.edges[e]
            pts = mesh.points[lo] + s[:, None] * (mesh.points[hi]
                                                  - mesh.points[lo])
            tang = mesh.points[hi] - mesh.points[lo]
            nrm = np.array([tang[1], -tang[0]]) / np.hypot(*tang)
            vals = [flux_at_phys(sigma, t, pts) @ nrm
                    for t in mesh.edge_triangles[e]]
            assert np.allclose(vals[0], vals[1], atol=1e-10)
            count += 1
        assert count > 5

    def test_gradient_flux_is_exact(self):
        mesh = bisect(lshape(), [1, 2], 1)
        for k in (1, 2, 3):
            space = FeSpace(mesh, k)
            rng = np.random.default_rng(k)
            fld = ScalarField(space, rng.standard_normal(space.n_dofs))
            gf = gradient_flux(fld)
            ref = np.array([[0.2, 0.3], [0.5, 0.1], [0.25, 0.6]])
            want = element_gradients(fld, ref)
            got = gf.element_values(ref)
            assert np.allclose(got, want, atol=1e-11)

    def test_exactly_resolved_solution_gives_zero_eta(self):
        # k = 4 reproduces the quartic solution, so the correction vanishes
        mesh = bisect(unit_square_crisscross(), np.arange(4), 2)
        space = FeSpace(mesh, 4)
        u = solve_poisson(space, f_poly)
        fl = equilibrate(u, f_poly)
        assert fl.eta_delta_total < 1e-10
        assert energy_error(u, grad_poly) < 1e-10

    def test_perturbed_solution_raises(self):
        # every free P1 dof in turn, so shared and singleton patches both
        # meet an inconsistent right-hand side; the error names the
        # perturbed vertex or a neighbour, whose patch overlaps its hat,
        # and the cause: the dropped row alone fails
        mesh = uniform_square()
        space = FeSpace(mesh, 1)
        u = solve_poisson(space, f_sine)
        assert equilibrate(u, f_sine).shared_patches > 0
        for v in np.nonzero(~space.boundary_dofs)[0]:
            bad = ScalarField(space, u.coeffs.copy())
            bad.coeffs[v] += 0.05
            with pytest.raises(EquilibrationError, match=GALERKIN) as err:
                equilibrate(bad, f_sine)
            named = int(re.search(r"vertex (\d+)", str(err.value)).group(1))
            assert named in mesh.triangles[vertex_patch(mesh, v)[0]]

    @pytest.mark.parametrize("k", [1, 3])
    def test_failed_patch_solve_is_named(self, monkeypatch, k):
        # a solver that returns garbage, with its true residuals, fails
        # the solved rows: the error blames the solve, not u_h
        u = solve_poisson(FeSpace(uniform_square(), k), f_sine)

        def garbage(A, bb, cls):
            z = np.random.default_rng(0).standard_normal((len(bb), A.shape[2]))
            return z, np.abs(bb - (A[cls] @ z[..., None])[..., 0]).max(axis=1)

        monkeypatch.setattr(equilibration, "_minnorm_solve", garbage)
        with pytest.raises(EquilibrationError, match=r"^patch problem at "
                           r"vertex \d+: scaled residual \S+ exceeds "
                           r"1\.0e-08; the patch solve failed$"):
            equilibrate(u, f_sine)

    @pytest.mark.parametrize("k", [1, 3])
    def test_verdict_does_not_depend_on_the_units_of_f(self, k):
        # f times c scales u_h and the flux alike.  The absolute patch
        # residual grows with c (8.7e-4 at c = 1e12, k = 1); the one
        # verify reports is scaled by the patch data, as equilibrate
        # scales the residual it holds to the tolerance
        mesh = bisect(unit_square_crisscross(), range(4), 6)
        for c in (1.0, 1e9, 1e12):
            def f(x, y):
                return c * f_sine(x, y)

            fl = equilibrate(solve_poisson(FeSpace(mesh, k), f), f)
            rep = fl.verify(f)
            assert rep.ok, (c, rep)
            assert rep.patch_residual == fl.scaled_residuals.max()
        assert fl.patch_residuals.max() > rep.tolerance


class TestHypercircle:
    def test_identity_exact_for_polynomial_data(self):
        mesh = bisect(unit_square_crisscross(), np.arange(4), 3)
        space = FeSpace(mesh, 2)
        u = solve_poisson(space, f_poly)
        fl = equilibrate(u, f_poly)
        err, dist, eta = prager_synge_terms(u, fl, grad_poly)
        assert err ** 2 + dist ** 2 == pytest.approx(eta ** 2, rel=1e-12)
        assert err <= eta  # guaranteed bound, constant exactly one

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_efficiency_near_one(self, k):
        mesh = bisect(unit_square_crisscross(), np.arange(4), 3)
        space = FeSpace(mesh, k)
        u = solve_poisson(space, f_sine)
        fl = equilibrate(u, f_sine)
        err = energy_error(u, grad_sine, qdeg=20)
        assert 0.9 < fl.eta_delta_total / err < 1.5

    def test_eta_star_localises_corner(self):
        def f_one(x, y):
            return np.ones_like(x)

        mesh = bisect(lshape(), np.arange(12), 2)
        space = FeSpace(mesh, 1)
        u = solve_poisson(space, f_one)
        fl = equilibrate(u, f_one)
        corner = [i for i, (x, y) in enumerate(mesh.points)
                  if abs(x) < 1e-14 and abs(y) < 1e-14][0]
        # the re-entrant corner carries one of the largest local stars
        rank = (fl.eta_star > fl.eta_star[corner]).sum()
        assert rank < max(4, mesh.n_vertices // 20)


def f_one(x, y):
    return np.ones_like(x)


@pytest.fixture(scope="module")
def corner_graded_p4():
    """P4 on the L-shape bisected 41 times at the re-entrant corner: 258
    triangles, diameters from 1 down to 7e-7, |lap u_h| up to about 3e8
    on the smallest ones."""
    mesh = lshape()
    for _ in range(41):
        at_corner = (mesh.points[mesh.triangles] == 0.0).all(axis=2)
        mesh = bisect(mesh, np.nonzero(at_corner.any(axis=1))[0], 1)
    assert mesh.n_triangles == 258
    return equilibrate(solve_poisson(FeSpace(mesh, 4), f_one), f_one)


class TestVerification:
    def test_graded_p4_verifies(self, corner_graded_p4):
        # the divergence residual cancels against |lap u_h| ~ 3e8, not |f|
        rep = verify_equilibration(corner_graded_p4, f_one)
        assert rep.ok, rep

    def test_graded_p4_perturbed_flux_fails(self, corner_graded_p4):
        # one part in 1e7 of the correction on the element where the
        # cancelling terms are largest still shows
        fl = corner_graded_p4
        space = fl.u_h.space
        lap = element_laplacians(fl.u_h, space.rule_main.points)
        t = int(np.argmax(np.abs(lap).max(axis=1)))
        w = fl.w_delta.copy()
        w[t] *= 1 + 1e-7  # scales q_delta[t] alike
        bad = dataclasses.replace(fl, w_delta=w)
        rep = verify_equilibration(bad, f_one)
        assert rep.div_residual > rep.tolerance
        assert rep.div_element == t
        assert not rep.ok

    def test_perturbed_jump_names_its_edge(self):
        # renumbering the triangles swaps the sides of edges but keeps the
        # edge ids, which number the sorted vertex pairs
        base = graded_lshape()
        perm = np.random.default_rng(2).permutation(base.n_triangles)
        renumbered = Mesh(base.points, base.triangles[perm])
        assert np.array_equal(renumbered.edges, base.edges)
        inner = np.flatnonzero(~base.boundary_edge)
        plus = perm.argsort()[base.edge_triangles[inner, 0]]
        swapped = inner[renumbered.edge_triangles[inner, 0] != plus]
        e = int(swapped[0])
        for mesh in (base, renumbered):
            fl = equilibrated(mesh, 2)
            assert verify_equilibration(fl, f_sine).ok
            jumps = fl.jumps.copy()
            jumps[e] += 1.0
            rep = verify_equilibration(dataclasses.replace(fl, jumps=jumps),
                                       f_sine)
            assert rep.jump_edge == e
            assert rep.jump_residual > rep.tolerance
            assert not rep.ok


    def test_non_finite_residual_fails_and_names_its_edge(self):
        # a NaN residual fails the check wherever it stands among the
        # three, and a NaN jump stays on its own edge, out of the scale
        fl = equilibrated(graded_lshape(), 2)
        e = int(np.flatnonzero(~fl.mesh.boundary_edge)[-1])
        jumps = fl.jumps.copy()
        jumps[e, 1] = np.nan
        rep = verify_equilibration(dataclasses.replace(fl, jumps=jumps),
                                   f_sine)
        assert rep.jump_edge == e and np.isnan(rep.jump_residual)
        assert not rep.ok
        for bad in (np.nan, np.inf):
            assert not dataclasses.replace(rep, div_residual=0.0,
                                           jump_residual=bad).ok


class TestFluxFieldUtilities:
    def test_flux_frame_is_class_invariant(self):
        # members of one class share the frame bit for bit: rows scaled
        # as `_flux_coefficients` scales them give values that differ by
        # that exact power of two alone
        mesh = graded_lshape()
        first, cls, ex = mesh.shape_classes
        t = int(np.flatnonzero(ex != ex[first[cls]])[0])
        t0 = int(first[cls[t]])
        k, rule = 3, triangle_rule(8)
        c = np.random.default_rng(4).standard_normal(rt_dim(k))
        coeffs = np.zeros((mesh.n_triangles, rt_dim(k)))
        coeffs[t0], coeffs[t] = c, np.ldexp(c, ex[t0] - ex[t])
        v = FluxField(mesh, k, coeffs).element_values(rule.points, [t0, t])
        assert np.array_equal(v[0], np.ldexp(v[1], ex[t] - ex[t0]))
        # the frame: centred at the centroid and divided by the diameter
        mesh = unit_square_crisscross()
        X = physical_points(mesh, rule.points)
        xh = (X - mesh.centroids[:, None]) / mesh.diameters[:, None, None]
        got, h = equilibration._frame(mesh, slice(None), rule.points)
        assert np.allclose(h, mesh.diameters, rtol=1e-15, atol=0.0)
        assert np.abs(got - xh).max() <= 1e-15
        mono = monomial_values(monomial_exponents(2), xh[..., 0], xh[..., 1])
        assert np.abs(equilibration._monomials(2, got) - mono).max() <= 1e-15

    def test_save_txt_round_trip(self, tmp_path):
        mesh = lshape()
        rng = np.random.default_rng(9)
        fx = FluxField(mesh, 1, rng.standard_normal((12, rt_dim(1))))
        path = tmp_path / "flux.txt"
        fx.save_txt(path)
        back = np.loadtxt(path, skiprows=2)
        assert np.array_equal(back, fx.coeffs)

    def test_save_txt_matches_per_value_formatting(self, tmp_path):
        mesh = lshape()
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal((12, rt_dim(2))) \
            * 10.0 ** rng.integers(-300, 300, (12, 1))
        coeffs[0, :3] = [0.0, -0.0, 1.0]
        path = tmp_path / "flux.txt"
        FluxField(mesh, 2, coeffs).save_txt(path)
        want = f"# piecewise flux coefficients, degree 2\n12 {rt_dim(2)}\n"
        want += "".join(" ".join(f"{float(v)!r}" for v in row) + "\n"
                        for row in coeffs)
        assert path.read_text() == want

    def test_shape_validation(self):
        mesh = lshape()
        with pytest.raises(ValueError, match="shape"):
            FluxField(mesh, 1, np.zeros((3, 4)))

    def test_field_arithmetic_space_check(self):
        mesh, other = lshape(), unit_square_crisscross()
        a = FluxField(mesh, 1, np.zeros((12, rt_dim(1))))
        b = FluxField(other, 1, np.zeros((4, rt_dim(1))))
        with pytest.raises(ValueError, match="different"):
            a + b
