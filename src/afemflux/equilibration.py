"""Equilibrated flux reconstruction by vertex-patch corrections.

Builds a piecewise Raviart-Thomas correction q so that sigma = grad u_h + q
is normal-continuous and satisfies the elementwise balance
div sigma = -(projection of f).  The L2 norm of q then bounds the energy
error of u_h with reliability constant one (up to data oscillation), by the
hypercircle identity.

The correction is assembled from independent vertex-patch problems.  On the
patch of vertex nu the conditions are

  * div q_nu = -(L2 projection of phi_nu (f + lap u_h)) on every element,
  * normal jump of q_nu kills the phi_nu-weighted jump of grad u_h across
    the interior edges through nu,
  * zero normal trace on the patch boundary away from the domain boundary,

with phi_nu the P1 hat function.  Each patch admits a solution because the
discrete solution satisfies Galerkin orthogonality against phi_nu; the
minimal-L2-norm solution is selected.  Summing the patch corrections yields
the global conditions exactly, so the verification residuals here are zero
to round-off by construction, not merely small.

Implementation notes.  All element integrals use the same quadrature rule
as the stiffness/load assembly, which makes the compatibility of the patch
systems hold in floating point, not just analytically.  Each element carries
a Cholesky factor L of its Raviart-Thomas mass matrix; patch problems are
solved in the whitened coordinates z = L^T q, where the squared L2 norm is
the plain Euclidean norm and corrections from different patches add
linearly.

Element blocks are built once per exact shape class.  Two elements share a
class when their edge vectors, scaled by a power of two, agree bit for bit
and the lower global id sits at the same end of each local edge.  The
basis uses centred, diameter-scaled monomials, so the whitened divergence
and trace blocks are invariant under translation and scaling, and L^-T
scales as the inverse of the element size.  The mass matrix, its factor,
the raw and whitened blocks and the rotation below are therefore computed
on the first element of each class only; every member takes its class's
blocks as they are, and maps its rotated coordinates to flux coefficients
with its class's L^-T Q times the exact power of two 2^(ex_first - ex_t),
ex being the exponent of the element's size.  What stays per element is
the data: the hat-weighted divergence right-hand sides, from f and
lap u_h at the element's own points.  On a mesh with no repeated shape
each element is its own class.

The divergence rows are condensed out element by element.  The whitened
coordinates of each class are rotated, w = Q^T z, by a complete QR factor
of its divergence block with the constant moment ordered last, so that the
divergence acts as [R^T 0] with R^T lower triangular.  Forward substitution
fixes the first n_p rotated coordinates, once per element and slot of the
patch vertex; the patch problem keeps only its jump and trace rows, over
the other N - n_p coordinates of each element, with the traces of the
fixed coordinates moved to the right-hand side.  Rotations preserve the
norm, so the minimal-norm solution of this reduced system is that of the
full one.  On a fully interior patch (every rim edge constrained) the
divergence theorem makes the first element's constant divergence moment a
combination of the other rows; that row is dropped, and the coordinate it
would fix, the last of the n_p, joins the free ones.  Each reduced system
is solved for its minimal-norm solution by semi-normal equations on the
row Gram matrix (batched LU) with residual refinement sweeps.  The patch
residual covers every row of the full system: the reduced rows, the
forward-substituted divergence rows and the dropped row, in which a u_h
without Galerkin orthogonality shows.

Patches are grouped by their sizes (elements, interior spokes, constrained
rim edges) and batched within a group.  Within a group, patches that are
exact copies of one another up to translation and a power-of-two scale
form a class: position by position their elements share a shape class,
and their slots, rim constraints and spoke connections agree.  Such
patches have one and the same reduced constraint matrix, since their
elements take the very blocks and rotation of their classes.  Each class
of two or more patches assembles its first patch once, forms the
min-norm operator from it and solves every member with one matrix product
on its own right-hand sides; the same residual check and sweeps apply.
Patches alone in their class take the batched LU path, as do all patches
of a mesh in which no element shape repeats.

`verify_equilibration` measures each element's divergence residual against
the terms that cancel in it, the projected load and lap u_h.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .galerkin import (
    FeSpace,
    ScalarField,
    element_batch,
    element_batches,
    element_gradients,
    element_laplacians,
    energy_error,
    monomial_exponents,
    monomial_projection,
    monomial_values,
    normal_jumps,
    scaled_coordinates,
)
from .mesh import Mesh
from .quadrature import triangle_rule

# patch-matrix bytes per solver batch, and per batch of class representatives
# assembled at once; cache-sized chunks win
_SOLVE_BYTES = 8e6


class EquilibrationError(RuntimeError):
    """An inconsistent or unsolvable patch problem."""


def rt_dim(k: int) -> int:
    """Dimension of the local flux space on one triangle."""
    return (k + 1) * (k + 3)


@lru_cache(maxsize=None)
def rt_divergence_matrix(k: int) -> np.ndarray:
    """D with div v_j = (1/h_T) sum_c D[c, j] m_c in the scaled monomials.

    Columns follow the local basis: (m_a, 0) for all degree <= k monomials,
    then (0, m_a), then the k+1 fields xhat * (xhat^(k-b) yhat^b) whose
    divergence is (k+2) times the homogeneous factor.
    """
    exps = monomial_exponents(k)
    n_p = len(exps)
    idx = {e: i for i, e in enumerate(exps)}
    D = np.zeros((n_p, rt_dim(k)))
    for j, (a, b) in enumerate(exps):
        if a:
            D[idx[(a - 1, b)], j] = a
        if b:
            D[idx[(a, b - 1)], n_p + j] = b
    for b in range(k + 1):
        D[idx[(k - b, b)], 2 * n_p + b] = k + 2
    return D


def rt_values(k: int, xhat: np.ndarray) -> np.ndarray:
    """Local flux basis at scaled-centred points xhat (..., 2) -> (..., N, 2).

    On a straight edge the normal component of every basis field is a
    polynomial of degree <= k in the arc parameter: the monomial pairs
    restrict to polynomials, and xhat . n is constant along a straight line.
    """
    exps = monomial_exponents(k)
    n_p = len(exps)
    mono = monomial_values(exps, xhat[..., 0], xhat[..., 1])
    out = np.zeros(xhat.shape[:-1] + (rt_dim(k), 2))
    out[..., :n_p, 0] = mono
    out[..., n_p:2 * n_p, 1] = mono
    hom0 = k * (k + 1) // 2  # first index of the total-degree-k monomials
    for b in range(k + 1):
        out[..., 2 * n_p + b, 0] = xhat[..., 0] * mono[..., hom0 + b]
        out[..., 2 * n_p + b, 1] = xhat[..., 1] * mono[..., hom0 + b]
    return out


def _edge_traces(mesh: Mesh, k: int, s: np.ndarray, els: np.ndarray,
                 le: int):
    """Normal traces of the local flux basis of the elements els on their
    local edge le, at the points s of the edge parameter running from the
    edge's lower global vertex id to its higher one.

    Returns the traces (t, len(s), N), with the outward unit normal, and
    the edge lengths (t,).
    """
    tris = mesh.triangles[els]
    ga, gb = tris[:, (le + 1) % 3], tris[:, (le + 2) % 3]
    pl = mesh.points[np.minimum(ga, gb)]
    ph = mesh.points[np.maximum(ga, gb)]
    ep = pl[:, None, :] + s[None, :, None] * (ph - pl)[:, None, :]
    Ve = rt_values(k, scaled_coordinates(mesh, ep, els))
    tang = mesh.points[gb] - mesh.points[ga]  # directed local edge
    elen = np.hypot(tang[:, 0], tang[:, 1])
    nrm = np.column_stack([tang[:, 1], -tang[:, 0]]) / elen[:, None]
    tr = (Ve.reshape(els.size, -1, 2) @ nrm[:, :, None])
    return tr.reshape(els.size, -1, rt_dim(k)), elen


@dataclass(frozen=True)
class FluxField:
    """A piecewise polynomial vector field in the local flux basis.

    coeffs has shape (n_triangles, rt_dim(degree)); each row expands the
    field on that element in the basis of `rt_values` about the element
    centroid, scaled by the element diameter.
    """

    mesh: Mesh = dc_field(repr=False)
    degree: int
    coeffs: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        expected = (self.mesh.n_triangles, rt_dim(self.degree))
        if self.coeffs.shape != expected:
            raise ValueError(f"coefficient shape {self.coeffs.shape}, "
                             f"expected {expected}")

    def _values(self, batch) -> np.ndarray:
        V = rt_values(self.degree, batch.xh)
        return np.einsum("tqjc,tj->tqc", V, self.coeffs[batch.els],
                         optimize=True)

    def element_values(self, ref_pts: np.ndarray, elements=None) -> np.ndarray:
        """Field at reference points of each element -> (nt, nq, 2)."""
        return self._values(element_batch(self.mesh, ref_pts, elements))

    def _divergence(self, batch) -> np.ndarray:
        dcoef = np.einsum("cj,tj->tc", rt_divergence_matrix(self.degree),
                          self.coeffs[batch.els])
        dcoef = dcoef / self.mesh.diameters[batch.els][:, None]
        return np.einsum("tqc,tc->tq", batch.mono, dcoef)

    def divergence(self, ref_pts: np.ndarray, elements=None) -> np.ndarray:
        """div of the field at reference points -> (nt, nq)."""
        return self._divergence(element_batch(self.mesh, ref_pts, elements,
                                              self.degree))

    def element_norms(self) -> np.ndarray:
        """L2 norm of the field on each element."""
        rule = triangle_rule(2 * self.degree + 2)
        out = np.empty(self.mesh.n_triangles)
        for batch in element_batches(self.mesh, rule.points):
            v = self._values(batch)
            sq = np.einsum("q,tqc,tqc->t", rule.weights, v, v)
            out[batch.els] = np.sqrt(sq * self.mesh.areas[batch.els])
        return out

    def norm(self) -> float:
        return float(np.sqrt((self.element_norms() ** 2).sum()))

    def _combine(self, other, sign):
        if not isinstance(other, FluxField):
            return NotImplemented
        if other.mesh is not self.mesh or other.degree != self.degree:
            raise ValueError("flux fields live on different spaces")
        return FluxField(self.mesh, self.degree,
                         self.coeffs + sign * other.coeffs)

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def save_txt(self, path) -> None:
        """One line of coefficients per element, reproducible formatting."""
        with open(path, "w") as fh:
            fh.write(f"# piecewise flux coefficients, degree {self.degree}\n")
            fh.write(f"{self.mesh.n_triangles} {rt_dim(self.degree)}\n")
            for row in self.coeffs:
                fh.write(" ".join(f"{float(v)!r}" for v in row) + "\n")


def gradient_flux(u_h: ScalarField) -> FluxField:
    """grad u_h expanded exactly in the local flux basis of each element."""
    space = u_h.space
    mesh = space.mesh
    k = space.degree
    rule = space.rule_main
    n_p = len(monomial_exponents(k))
    coeffs = np.zeros((mesh.n_triangles, rt_dim(k)))
    for batch in element_batches(mesh, rule.points, degree=k):
        g = element_gradients(u_h, rule.points, batch.els)
        sol = monomial_projection(rule.weights, batch.mono, g[..., 0],
                                  g[..., 1])  # (t, n_p, 2)
        coeffs[batch.els, :n_p] = sol[..., 0]
        coeffs[batch.els, n_p:2 * n_p] = sol[..., 1]
    return FluxField(mesh, k, coeffs)


# -- per-element data ---------------------------------------------------


def _tril_inverse(L):
    """Inverses of a batch of lower triangular matrices, by forward
    substitution over their rows: row i of L^-1 is
    (e_i - L[i, :i] L^-1[:i]) / L[i, i], and rows before i vanish from
    column i on."""
    Li = np.zeros_like(L)
    for i in range(L.shape[-1]):
        Li[:, i, :i] = -(L[:, None, i, :i] @ Li[:, :i, :i])[:, 0]
        Li[:, i, i] = 1.0
        Li[:, i, :i + 1] /= L[:, i, i, None]
    return Li


def _shape_blocks(space: FeSpace, els: np.ndarray):
    """Constraint blocks of the given elements that depend on their shape
    alone: raw, whitened and rotated.

    Returns a dict with the Raviart-Thomas mass matrix, LiT = L^-T for its
    Cholesky factor L, the divergence moment block (raw Draw, whitened
    Dt = Draw LiT) and the per-edge zero-trace moment blocks (raw Traw,
    whitened Trt).  The basis uses centred, diameter-scaled monomials, so
    Dt and Trt are invariant under translation and scaling of the element,
    while LiT scales as the inverse of its size.

    The rotated blocks act on the coordinates w = Q^T z, with Q a complete
    QR factor of Dt^T whose divergence moments are taken in `_const_last`
    order: DQ = Dt Q, in that order, is [R^T 0] with R^T lower triangular;
    TrQ = Trt Q holds the rotated trace blocks and LiTQ = LiT Q maps
    rotated coordinates to flux coefficients.
    """
    mesh = space.mesh
    k = space.degree
    rule = space.rule_main
    er = space.edge_rule_main
    n_p = len(monomial_exponents(k))
    N = rt_dim(k)
    areas = mesh.areas[els]
    h = mesh.diameters[els]
    w = rule.weights

    V = rt_values(k, element_batch(mesh, rule.points, els).xh)
    # mass in matmul form: rows are the flattened (point, component) axis
    Vf = V.transpose(0, 1, 3, 2).reshape(els.size, -1, N)
    M = Vf.transpose(0, 2, 1) @ (Vf * np.repeat(w, 2)[None, :, None])
    M *= areas[:, None, None]
    LiT = _tril_inverse(np.linalg.cholesky(M)).transpose(0, 2, 1)

    mono = V[..., :n_p, 0]
    Msc = mono.transpose(0, 2, 1) @ (mono * w[None, :, None])
    Msc *= areas[:, None, None]
    Draw = (Msc @ rt_divergence_matrix(k)) / h[:, None, None]

    spow = er.points[:, None] ** np.arange(k + 1)[None, :]
    wspow = (er.weights[:, None] * spow).T  # (k+1, nq_e) moment weights
    Traw = np.empty((els.size, 3, k + 1, N))
    for le in range(3):
        tr, elen = _edge_traces(mesh, k, er.points, els, le)
        Traw[:, le] = (wspow[None] @ tr) * elen[:, None, None]

    Dt = Draw @ LiT
    Trt = (Traw.reshape(els.size, -1, N) @ LiT).reshape(Traw.shape)
    Dp = Dt[:, _const_last(n_p)]
    Q = np.linalg.qr(Dp.transpose(0, 2, 1), mode="complete")[0]
    return {
        "mass": M, "LiT": LiT, "Draw": Draw, "Dt": Dt, "Traw": Traw,
        "Trt": Trt, "Q": Q, "DQ": Dp @ Q, "TrQ": Trt @ Q[:, None],
        "LiTQ": LiT @ Q,
    }


def _divergence_rhs(u_h: ScalarField, f, els: np.ndarray):
    """Hat-weighted divergence right-hand sides of the given elements,
    (t, 3, n_p), one per local vertex: minus the moments of
    phi_s (f + lap u_h) against the scaled monomials."""
    space = u_h.space
    mesh = space.mesh
    rule = space.rule_main
    batch = element_batch(mesh, rule.points, els, space.degree)
    X = batch.X
    res = f(X[..., 0], X[..., 1]) + element_laplacians(u_h, rule.points, els)
    return -np.einsum("q,qs,tq,tqa,t->tsa", rule.weights, rule.bary, res,
                      batch.mono, mesh.areas[els], optimize=True)


def _edge_rhs(space: FeSpace, J: np.ndarray, hE: np.ndarray):
    """Hat-weighted jump moments per edge.

    J holds normal jumps at the points of space.edge_rule_main, one row per
    edge, and hE the lengths of those edges.  Returns (ne, 2, k+1): variant
    0 weights with the hat of the lower endpoint (1 - s in the global edge
    parameter), variant 1 with s.  Boundary edge rows are zero and never
    used.
    """
    k = space.degree
    er = space.edge_rule_main
    s = er.points
    phis = np.column_stack([1.0 - s, s])
    spow = s[:, None] ** np.arange(k + 1)[None, :]
    W = er.weights[:, None, None] * phis[:, :, None] * spow[:, None, :]
    # one unoptimised contraction, so that each edge's row is computed alike
    # for any set of edges
    return -np.einsum("eq,qvb->evb", J * hE[:, None], W)


def _const_last(n_p: int) -> np.ndarray:
    """Order of the divergence moments with the constant one last."""
    return np.roll(np.arange(n_p), -1)


def _forward(DQ, rdiv):
    """U, the first n_p rotated coordinates that meet the divergence rows
    rdiv (t, 3, n_p) of each slot, by forward substitution against the
    rotated blocks DQ (t, n_p, N); the constant moment comes last, so only
    the last row involves the last of them."""
    U = np.empty_like(rdiv)
    for i in range(rdiv.shape[2]):
        U[..., i] = (rdiv[..., i] - np.einsum(
            "tj,tsj->ts", DQ[:, i, :i], U[..., :i])) / DQ[:, i, i, None]
    return U


# -- patch systems ------------------------------------------------------


def _patch_tables(mesh: Mesh):
    """Flat per-vertex tables: interior spokes and trace counts."""
    ptr, ind, slot = mesh._vertex_triangles
    eptr, eind = mesh._vertex_edges
    bed = mesh.boundary_edge
    nv = mesh.n_vertices

    vert_of = np.repeat(np.arange(nv), np.diff(eptr))
    keep = ~bed[eind]
    scnt = np.bincount(vert_of[keep], minlength=nv)
    sptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(scnt, out=sptr[1:])
    sind = eind[keep]

    rim = mesh.edge_of_triangle[ind, slot]  # edge opposite nu in each element
    imposed = ~bed[rim]
    vt = np.repeat(np.arange(nv), np.diff(ptr))
    tcnt = np.bincount(vt, weights=imposed, minlength=nv).astype(np.int64)
    return sptr, sind, tcnt, scnt


def _element_classes(mesh: Mesh):
    """Exact shape classes of the elements: first element, class of each
    element and class sizes, as `_row_classes` returns them, and the
    power-of-two exponent ex of each element's size.

    Two elements share a class only if their edge vectors p1 - p0, p2 - p0,
    in local vertex order and scaled by 2^-ex (an exact scaling), agree bit
    for bit, and the lower global id sits at the same end of each local
    edge, which fixes the edge parameter of the trace blocks.  The whitened
    blocks Dt and Trt of such elements then agree up to the round-off of
    their translation, and LiT of element t is that of its class's first
    element times 2^(ex_first - ex_t).
    """
    t = mesh.triangles
    p = mesh.points[t]
    e = np.concatenate([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=1)
    _, ex = np.frexp(np.abs(e).max(axis=1))
    e = np.ldexp(e, -ex[:, None])
    lower = t[:, [2, 0, 1]] < t[:, [1, 2, 0]]  # local edge le runs le+1 -> le+2
    key = np.column_stack([e.view(np.int64), lower @ np.array([1, 2, 4])])
    first, cls, counts = _row_classes(key)
    return first, cls, counts, ex


def _row_classes(key):
    """First row, class and class size of each distinct row of an integer
    array, rows compared as raw bytes (faster than np.unique on axis 0).
    Classes are numbered in the order of their first rows, so that on
    distinct rows class i is row i."""
    key = np.ascontiguousarray(key, dtype=np.int64)
    rows = key.view(np.dtype((np.void, 8 * key.shape[1]))).ravel()
    _, first, cls, counts = np.unique(rows, return_index=True,
                                      return_inverse=True, return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[cls], counts[order]


def _patch_layout(vs, mg, sg, mesh, sptr, sind):
    """Index tables of the patches vs, which share the sizes (mg, sg).

    els, slots (P, mg): the elements in triangle-id order and the slot of
    the patch vertex in each; imposed (P, mg): whether the rim edge carries
    a zero-trace constraint; spokes (P, sg): the interior edges through the
    vertex in edge-id order; pos, le (P, sg, 2): the patch position and the
    local edge of each spoke on its two sides.
    """
    ptr, ind, slotv = mesh._vertex_triangles
    take = ptr[vs][:, None] + np.arange(mg)[None, :]
    els, slots = ind[take], slotv[take]
    imposed = ~mesh.boundary_edge[mesh.edge_of_triangle[els, slots]]
    spokes = sind[sptr[vs][:, None] + np.arange(sg)[None, :]]
    sides = mesh.edge_triangles[spokes]
    pos = (els[:, None, None, :] < sides[..., None]).sum(axis=3)
    return els, slots, imposed, spokes, pos, mesh.edge_local[spokes]


def _take(layout, sel):
    return tuple(a[sel] for a in layout)


def _patch_classes(layout, ecls):
    """Exact class of each patch in one (m, s, t) group.

    Patches share a class when, position by position, their elements share
    an exact shape class, the patch vertex sits in the same slot and the
    rim edge is constrained alike, and their spokes join the same positions
    through the same local edges.  Their reduced constraint matrices are
    then equal, assembled from the same class blocks.  Returns the first
    patch of each class, the class of each patch and the class sizes.
    """
    els, slots, imposed, spokes, pos, le = layout
    P = els.shape[0]
    key = np.concatenate([ecls[els], slots, imposed, pos.reshape(P, -1),
                          le.reshape(P, -1)], axis=1)
    return _row_classes(key)


def _assemble_patches(layout, tg, blocks, deficient):
    """Reduced constraint matrices of patches sharing one (m, s, t) group.

    Rows are the k+1 jump moments of each spoke, then the k+1 trace
    moments of each constrained rim edge.  Columns are the N - n_p free
    rotated coordinates of each element in patch order and, on fully
    interior patches, last, the constant-divergence coordinate of the
    first element, whose divergence row is dropped.  Each element's
    entries are the rotated trace blocks TrQ of its class.
    """
    els, slots, imposed, spokes, pos, le = layout
    cls = blocks["ecls"][els]
    TrQ = blocks["TrQ"]
    P, mg = els.shape
    sg = spokes.shape[1]
    n_p = blocks["DQ"].shape[1]
    K1, N = TrQ.shape[2:]
    Nf = N - n_p
    A = np.zeros((P, (sg + tg) * K1, mg * Nf + deficient))
    pidx = np.arange(P)[:, None, None]
    ncols = np.arange(Nf)[None, None, :]
    for sidx in range(sg):
        rows = sidx * K1 + np.arange(K1)
        for side in (0, 1):
            at = pos[:, sidx, side]
            blk = TrQ[cls[np.arange(P), at], le[:, sidx, side]]
            A[pidx, rows[None, :, None], at[:, None, None] * Nf + ncols] = \
                blk[..., n_p:]
            if deficient:
                A[at == 0, rows[0]:rows[-1] + 1, -1] = blk[at == 0, :, n_p - 1]

    row1 = sg * K1
    if tg:
        rank = np.cumsum(imposed, axis=1) - imposed
        for j in range(mg):
            selp = np.nonzero(imposed[:, j])[0]
            if selp.size == 0:
                continue
            rows = row1 + rank[selp, j, None] * K1 + np.arange(K1)[None, :]
            cols = (j * Nf + np.arange(Nf))[None, None, :]
            A[selp[:, None, None], rows[:, :, None], cols] = \
                TrQ[cls[selp, j], slots[selp, j], :, n_p:]
        if deficient:  # every rim edge is constrained, the first one first
            A[:, row1:row1 + K1, -1] = TrQ[cls[:, 0], slots[:, 0], :, n_p - 1]
    return A


def _patch_rhs(layout, vs, mesh, blocks, Jr, deficient):
    """Reduced right-hand sides of the patches vs.

    The jump moments and the zero traces, less the traces of the fixed
    coordinates of each element.  Returns the right-hand sides, the fixed
    coordinates (P, m, n_p) — U of the patch vertex's slot, with the free
    constant-divergence coordinate of a fully interior patch's first
    element set to zero — and the scale of the patch data.
    """
    els, slots, imposed, spokes, pos, le = layout
    cls = blocks["ecls"][els]
    TrQ = blocks["TrQ"]
    P = vs.size
    n_p = blocks["U"].shape[2]
    fixed = blocks["U"][els, slots]
    if deficient:
        fixed[:, 0, -1] = 0.0
    var = (mesh.edges[spokes, 0] != vs[:, None]).astype(np.int64)
    jumps = Jr[spokes, var]
    b = jumps.copy()
    p = np.arange(P)[:, None]
    for side in (0, 1):
        at = pos[:, :, side]
        b -= _apply(TrQ[cls[p, at], le[:, :, side], :, :n_p], fixed[p, at])
    tr = -_apply(TrQ[cls, slots, :, :n_p], fixed)[imposed]
    scale = 1.0 + np.maximum(
        np.abs(blocks["rdiv"][els, slots]).max(axis=(1, 2)),
        np.abs(jumps).max(axis=(1, 2), initial=0.0))
    return (np.concatenate([b.reshape(P, b[0].size),
                            tr.reshape(P, tr.size // P)], axis=1),
            fixed, scale)


def _apply(M, x):
    """Batched matrix-vector products M @ x."""
    return (M @ x[..., None])[..., 0]


def _scale_rows(A):
    """Scale the rows of a batch A (P, R, C) to unit norm, in place; return
    A and the row norms."""
    D = np.sqrt(np.einsum("prc,prc->pr", A, A))
    np.maximum(D, 1e-300, out=D)
    A /= D[:, :, None]
    return A, D


def _refine(bs, D, apply, correct):
    """Minimal-norm solutions of scaled systems, refined to round-off.

    bs holds the scaled right-hand sides, one row per patch; apply(sel, z)
    multiplies the scaled matrices of patches sel with z, and
    correct(sel, r) maps residuals to the row-space correction.  Returns
    the solutions and the unscaled row residuals.
    """
    z = correct(slice(None), bs)
    r = bs - apply(slice(None), z)
    resid = np.abs(r).max(axis=1, initial=0.0)
    # scaled rows have unit norm, so ||z|| sets the natural residual scale
    scale = np.sqrt(np.einsum("pc,pc->p", z, z)) \
        + np.abs(bs).max(axis=1, initial=0.0)
    for _ in range(3):
        bad = np.nonzero(resid > 1e-14 * scale)[0]
        if bad.size == 0:
            break
        z[bad] += correct(bad, r[bad])
        r[bad] = bs[bad] - apply(bad, z[bad])
        resid[bad] = np.abs(r[bad]).max(axis=1)
    return z, np.abs(r * D).max(axis=1, initial=0.0)


def _minnorm_solve(A, bb):
    """Batched minimal-norm solutions and row residuals of reduced systems.

    The reduced systems (`_assemble_patches`) are underdetermined,
    consistent and of full row rank: the divergence rows are gone, having
    fixed their coordinates by forward substitution, and on fully interior
    patches the one dependent row, the first element's constant-divergence
    moment, is dropped and its coordinate solved for instead.  Rows are
    scaled to unit norm, which changes neither the row space nor the
    minimum-norm solution.  The row-space solution comes from semi-normal
    equations on the row Gram matrix (batched LU), whose conditioning the
    row scaling keeps far enough below 1/eps that a refinement sweep, when
    one is triggered at all, reaches round-off.
    """
    As, D = _scale_rows(A)
    AT = As.transpose(0, 2, 1)
    G = As @ AT

    def correct(sel, rhs):
        return _apply(AT[sel], np.linalg.solve(G[sel], rhs[..., None])[..., 0])

    return _refine(bb / D, D, lambda sel, z: _apply(As[sel], z), correct)


def _class_solve(A, bb, sizes):
    """Minimal-norm solutions of patches that share their class's matrix.

    A holds one reduced matrix per class, bb the reduced right-hand sides
    of the members, class by class with the given class sizes.  For a
    class's scaled matrix As the operator Y = (As As^T)^-1 As, the
    semi-normal equations of `_minnorm_solve` formed once, maps each scaled
    right-hand side b to the solution b @ Y.
    """
    As, D = _scale_rows(A)
    Y = np.linalg.solve(As @ As.transpose(0, 2, 1), As)
    z = np.empty((bb.shape[0], A.shape[2]))
    resid = np.empty(bb.shape[0])
    end = np.cumsum(sizes)
    for c, e in enumerate(end):
        rows = slice(e - sizes[c], e)
        z[rows], resid[rows] = _refine(bb[rows] / D[c], D[c],
                                       lambda _, x: x @ As[c].T,
                                       lambda _, r: r @ Y[c])
    return z, resid


@dataclass(frozen=True)
class EquilibrationReport:
    """Residuals of the defining conditions of an equilibrated flux."""

    div_residual: float
    jump_residual: float
    patch_residual: float
    tolerance: float = 1e-8

    @property
    def ok(self) -> bool:
        return max(self.div_residual, self.jump_residual,
                   self.patch_residual) <= self.tolerance


@dataclass(frozen=True)
class EquilibratedFlux:
    """Result of the patchwise flux equilibration.

    eta_delta[t] is the elementwise estimator, the L2 norm of the correction
    on element t; the bound |||u - u_h||| <= sqrt(sum eta_delta^2) holds up
    to data oscillation.  eta_star[nu] is the L2 norm of the patch
    contribution of vertex nu, the localised (starwise) estimator.
    patch_residuals[nu] is the largest residual, in whitened coordinates,
    of any row of the full patch system of nu: the jump and trace rows
    solved, the divergence rows fixed by forward substitution, and on a
    fully interior patch the dropped constant-divergence row.
    jumps[e] holds the normal jumps of grad u_h across edge e at the points
    of u_h.space.edge_rule_main (zero on boundary edges): the data the jump
    rows were solved against, which the residual estimators reuse.
    patch_classes counts the class operators built, shared_patches the
    patches solved with one.
    """

    u_h: ScalarField = dc_field(repr=False)
    q_delta: FluxField = dc_field(repr=False)
    eta_delta: np.ndarray = dc_field(repr=False)
    eta_star: np.ndarray = dc_field(repr=False)
    patch_residuals: np.ndarray = dc_field(repr=False)
    jumps: np.ndarray = dc_field(repr=False)
    patch_classes: int
    shared_patches: int

    @property
    def mesh(self) -> Mesh:
        return self.u_h.space.mesh

    def total_flux(self) -> FluxField:
        """sigma = grad u_h + correction; normal-continuous, equilibrated."""
        return gradient_flux(self.u_h) + self.q_delta

    @property
    def eta_delta_total(self) -> float:
        return float(np.sqrt((self.eta_delta ** 2).sum()))

    def verify(self, f) -> EquilibrationReport:
        return verify_equilibration(self, f)


def equilibrate(u_h: ScalarField, f, rtol: float = 1e-8) -> EquilibratedFlux:
    """Reconstruct the equilibrated flux correction for a discrete solution.

    f is the load, called as f(x, y) on arrays.  Raises EquilibrationError
    if any patch problem is inconsistent beyond rtol, which indicates that
    u_h is not the Galerkin solution of the assembled system (or that data
    were changed between solve and equilibration).
    """
    space = u_h.space
    mesh = space.mesh
    k = space.degree
    n_p = len(monomial_exponents(k))
    N = rt_dim(k)
    K1 = k + 1
    Nf = N - n_p
    nt, nv = mesh.n_triangles, mesh.n_vertices

    efirst, ecls, _, ex = _element_classes(mesh)
    nc = efirst.size
    # without a repeated element no two patches can share a class
    keyed = nc < nt
    # DQ, TrQ and LiTQ per element class, from its first element; rdiv and
    # U per element
    blocks = {"ecls": ecls, "DQ": np.empty((nc, n_p, N)),
              "TrQ": np.empty((nc, 3, K1, N)), "LiTQ": np.empty((nc, N, N)),
              "rdiv": np.empty((nt, 3, n_p)), "U": np.empty((nt, 3, n_p))}
    for batch in element_batches(mesh, ids=efirst):
        part = _shape_blocks(space, batch.els)
        for name in ("DQ", "TrQ", "LiTQ"):  # a first element's class is
            blocks[name][ecls[batch.els]] = part[name]  # its position
        del part  # free before the next batch's transients
    order = _const_last(n_p)
    for batch in element_batches(mesh):
        els = batch.els
        rdiv = _divergence_rhs(u_h, f, els)[..., order]
        blocks["rdiv"][els] = rdiv
        blocks["U"][els] = _forward(blocks["DQ"][ecls[els]], rdiv)

    sptr, sind, tcnt, scnt = _patch_tables(mesh)
    J, _ = normal_jumps(u_h, 2 * k + 2)
    Jr = _edge_rhs(space, J, mesh.edge_lengths)

    m = np.diff(mesh._vertex_triangles[0])
    keys = np.stack([m, scnt, tcnt], axis=1)
    uniq, ginv = np.unique(keys, axis=0, return_inverse=True)

    w_delta = np.zeros((nt, N))
    eta_star = np.zeros(nv)
    patch_res = np.zeros(nv)
    worst_ratio = 0.0
    worst_vertex = -1
    n_classes = n_shared = 0

    def accept(vs, layout, fixed, scale, z, resid, deficient):
        nonlocal worst_ratio, worst_vertex
        els, slots = layout[:2]
        P, mg = els.shape
        w = np.empty((P, mg, N))
        w[..., :n_p] = fixed
        w[..., n_p:] = z[:, :mg * Nf].reshape(P, mg, Nf)
        if deficient:
            w[:, 0, n_p - 1] = z[:, -1]
        # every divergence row, the dropped one included: that is where
        # a u_h without Galerkin orthogonality shows
        dres = _apply(blocks["DQ"][ecls[els]], w) - blocks["rdiv"][els, slots]
        resid = np.maximum(resid, np.abs(dres).max(axis=(1, 2)))
        ratio = resid / scale
        i = int(np.argmax(ratio))
        if ratio[i] > worst_ratio:
            worst_ratio = float(ratio[i])
            worst_vertex = int(vs[i])
        patch_res[vs] = resid
        eta_star[vs] = np.sqrt(np.einsum("pjc,pjc->p", w, w))
        np.add.at(w_delta, els, w)

    for g, (mg, sg, tg) in enumerate(uniq):
        members = np.nonzero(ginv == g)[0]
        layout = _patch_layout(members, mg, sg, mesh, sptr, sind)
        deficient = bool(sg == mg and tg == mg)
        R, C = (sg + tg) * K1, mg * Nf + deficient
        step = max(8, int(_SOLVE_BYTES / (max(R, 1) * C * 8)))
        single = np.arange(members.size)
        if keyed:
            first, cls, counts = _patch_classes(layout, ecls)
            multi = np.nonzero(counts > 1)[0]
            in_class = counts[cls] > 1
            single = np.nonzero(~in_class)[0]
            n_classes += multi.size
            n_shared += members.size - single.size
        if keyed and multi.size:
            # members of shared classes, class by class in class-id order
            sel = np.nonzero(in_class)[0]
            sel = sel[np.argsort(cls[sel], kind="stable")]
            end = np.cumsum(counts[multi])
            start = end - counts[multi]
            for c0 in range(0, multi.size, step):
                cs = multi[c0:c0 + step]
                rows = sel[start[c0]:end[c0 + cs.size - 1]]
                part = _take(layout, rows)
                bb, fixed, scale = _patch_rhs(part, members[rows], mesh,
                                              blocks, Jr, deficient)
                A = _assemble_patches(_take(layout, first[cs]), tg, blocks,
                                      deficient)
                z, resid = _class_solve(A, bb, counts[cs])
                accept(members[rows], part, fixed, scale, z, resid,
                       deficient)
        for s0 in range(0, single.size, step):
            sel = single[s0:s0 + step]
            part = _take(layout, sel)
            bb, fixed, scale = _patch_rhs(part, members[sel], mesh, blocks,
                                          Jr, deficient)
            A = _assemble_patches(part, tg, blocks, deficient)
            z, resid = _minnorm_solve(A, bb)
            accept(members[sel], part, fixed, scale, z, resid, deficient)

    if worst_ratio > rtol:
        raise EquilibrationError(
            f"patch problem at vertex {worst_vertex} is inconsistent: "
            f"scaled residual {worst_ratio:.3e} exceeds {rtol:.1e}; the "
            "input field does not satisfy Galerkin orthogonality")

    eta_delta = np.sqrt(np.einsum("tc,tc->t", w_delta, w_delta))
    # an element's LiTQ is its class's scaled by the exact power of two
    # 2^(ex_first - ex_t), applied to the product
    d = ex[efirst][ecls] - ex
    qcoef = np.empty((nt, N))
    for batch in element_batches(mesh):
        els = batch.els
        qcoef[els] = np.ldexp(_apply(blocks["LiTQ"][ecls[els]], w_delta[els]),
                              d[els, None])
    return EquilibratedFlux(u_h, FluxField(mesh, k, qcoef), eta_delta,
                            eta_star, patch_res, J, n_classes, n_shared)


# -- verification -------------------------------------------------------


def verify_equilibration(flux: EquilibratedFlux, f) -> EquilibrationReport:
    """Check the defining conditions of the reconstruction a posteriori.

    Evaluates, independently of the patch solver, the pointwise residual of
    div q = -(projected f) - lap u_h at the volume quadrature points and of
    the normal-jump condition at the edge quadrature points.  Each
    element's divergence residual is relative to the terms that cancel in
    it, max(1, max_T |projected f|, max_T |lap u_h|): on a strongly graded
    mesh |lap u_h| on the smallest elements exceeds |f| by orders of
    magnitude, and so does the round-off of the cancellation.
    """
    u_h = flux.u_h
    space = u_h.space
    mesh = space.mesh
    k = space.degree
    rule = space.rule_main

    div_res = 0.0
    for batch in element_batches(mesh, rule.points, degree=k):
        X, mono = batch.X, batch.mono
        fX = f(X[..., 0], X[..., 1])
        pf = np.einsum("tqa,ta->tq", mono, monomial_projection(
            rule.weights, mono, fX)[..., 0])
        lap = element_laplacians(u_h, rule.points, batch.els)
        dv = flux.q_delta._divergence(batch)
        scale = np.abs([pf, lap]).max(axis=(0, 2), initial=1.0)
        div_res = max(div_res, float(
            (np.abs(dv + pf + lap).max(axis=1) / scale).max()))

    er = space.edge_rule_main
    J, interior = normal_jumps(u_h, 2 * k + 2)
    qn = np.zeros_like(J)
    et, el = mesh.edge_triangles, mesh.edge_local
    for side in (0, 1):
        for le in range(3):
            rows = np.nonzero(interior & (el[:, side] == le))[0]
            if rows.size == 0:
                continue
            t = et[rows, side]
            tr, _ = _edge_traces(mesh, k, er.points, t, le)
            qn[rows] += np.einsum("tqj,tj->tq", tr, flux.q_delta.coeffs[t])
    jump_res = float(np.abs((qn + J)[interior]).max()) if interior.any() else 0.0
    jscale = 1.0 + (float(np.abs(J[interior]).max()) if interior.any() else 0.0)

    return EquilibrationReport(div_res, jump_res / jscale,
                               float(flux.patch_residuals.max()))


def prager_synge_terms(u_h: ScalarField, flux: EquilibratedFlux, grad_exact,
                       qdeg: int | None = None):
    """The three sides of the hypercircle identity.

    Returns (error, flux_distance, bound): the energy error of u_h, the L2
    distance between the exact flux and the reconstructed one, and the
    computable bound (the L2 norm of the correction).  When the balance
    div sigma = -f holds exactly, error^2 + flux_distance^2 = bound^2.
    """
    space = u_h.space
    k = space.degree
    if qdeg is None:
        qdeg = 2 * k + 8
    rule = triangle_rule(qdeg)
    sigma = flux.total_flux()
    dist_sq = 0.0
    for batch in element_batches(space.mesh, rule.points):
        gx, gy = grad_exact(batch.X[..., 0], batch.X[..., 1])
        sv = sigma._values(batch)
        d0 = np.asarray(gx) - sv[..., 0]
        d1 = np.asarray(gy) - sv[..., 1]
        dist_sq += float(np.einsum("q,tq,t->", rule.weights,
                                   d0 * d0 + d1 * d1,
                                   space.mesh.areas[batch.els]))
    err = energy_error(u_h, grad_exact, qdeg=qdeg)
    return err, float(np.sqrt(dist_sq)), flux.eta_delta_total
