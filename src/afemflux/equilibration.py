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

Element blocks are built once per exact shape class and run.  Two elements
share a class when their edge vectors, scaled by a power of two, agree bit
for bit and the lower global id sits at the same end of each local edge.
The basis uses centred, diameter-scaled monomials, so the whitened
divergence and trace blocks are invariant under translation and scaling,
and L^-T scales as the inverse of the element size.  The blocks are
computed from the normalised edge vectors alone, the class key itself,
never from absolute coordinates: members of one class get the same blocks
bit for bit, on any level of a run.  The mass matrix, its factor, the raw
and whitened blocks and the rotation below are therefore computed on the
first element of each class only, and only for a class that the
`ElementBlocks` cache passed in does not hold: the cache carries the
rotated divergence and trace blocks of every class of the previous call,
so an element that refinement leaves alone costs no block build on the
next level.  Being the same bit for bit whichever element they are built
on, cached blocks leave the result as a cold call gives it.  The cache
holds one generation of blocks at a time: a call gathers the classes it
finds there straight into its new arrays, empties the cache, which frees
the old arrays, then builds the new classes, and registers its arrays
once they are complete.  What stays per element is the data: the
hat-weighted divergence right-hand sides, from f and lap u_h at the
element's own points.  On a mesh with no repeated shape each element is
its own class.

The divergence rows are condensed out element by element.  The whitened
coordinates of each class are rotated, w = Q^T z, by a complete QR factor
of its divergence block with the constant moment ordered last, so that the
divergence acts as [R^T 0] with R^T lower triangular.  The computed
second block is round-off of that zero, so only R^T is kept, as DQ.  Forward
substitution fixes the first n_p rotated coordinates, once per element and
slot of the patch vertex, with the traces of the fixed coordinates moved
to the right-hand side.  On a fully interior patch (every rim edge
constrained) the divergence theorem makes the constant divergence moment
of its lowest-id element a combination of the other rows; that row is
dropped, and the coordinate it would fix, the last of the n_p, stays free.

The rim rows are condensed out the same way.  A rim row is the zero-trace
condition on the patch edge opposite the vertex, and involves one element
alone.  For each element and slot of the patch vertex, Householder steps
on its rim trace block over its free coordinates (`_rim_rotation`) give a
second rotation Q2, in which the rim rows act as [R2^T 0]; forward
substitution fixes the first k+1 of the rotated coordinates where the rim
edge is constrained.  The first element of a fully interior patch turns
its free constant-divergence coordinate with the others.  The rotations
are built element by element over the batch, in its last axis; the
patches of one class take those of its first.  The patch problem
keeps only the jump rows of its spokes, over the N - n_p - (k+1) free
coordinates of each such element (`_assemble_patches`).  Rotations
preserve the norm, so the minimal-norm solution of this reduced system is
that of the full one.  Each reduced system is solved for its minimal-norm
solution by semi-normal equations on the row Gram matrix (batched LU)
with residual refinement sweeps, and each element's solution is turned
back by Q2 into the rotated coordinates of its class.  The patch residual
covers every row of the full system: the jump rows solved, the
forward-substituted divergence rows, against R^T, and rim rows, computed
in the class coordinates after the turn back, and the dropped row, in
which a u_h without Galerkin orthogonality shows.

The flux keeps the correction in the rotated coordinates of each element's
class, w_delta, in which its norm is the Euclidean one.  Each (element,
slot) pair belongs to one patch alone: its correction is written once, and
the three slots of each element are summed at the end, so w_delta does not
depend on the order of the patch groups.  Its coefficients in the flux
basis, q_delta, are formed only when asked for: each element maps its
coordinates with its class's L^-T Q, built again for the purpose, times the
exact power of two 2^(ex_first - ex_t), ex being the exponent of the
element's size.  The adaptive loop never asks for them.

Patches are grouped by their sizes (elements, interior spokes, constrained
rim edges) and batched within a group.  Each patch lists its elements fan
after fan, counterclockwise around its vertex from the first element of
each fan (`_fan_layout`).  Within a group, patches that list alike form a
class: position by position their elements share a shape class, the patch
vertex sits in the same slot, the rim edge is constrained alike and a
spoke joins the next element alike.  Such patches are exact copies of one
another up to translation and a power-of-two scale, with one and the same
reduced constraint matrix.  A group's
patches are batched in class order.  In each batch the rim frames and the
reduced matrix of a class are built on its first patch and taken by the
others, and its Gram matrix is factored once for all of its patches in
the batch, solved as columns (`_minnorm_solve`); a patch alone in its
class is a class of one.

`verify_equilibration` measures each element's divergence residual against
the terms that cancel in it, the projected load and lap u_h.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from typing import ClassVar

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
    reference_projector,
)
from .mesh import Mesh
from .quadrature import triangle_rule

# patch-matrix and rim-frame bytes per solver batch, and element-block
# bytes per batch of `_fill_blocks`; cache-sized chunks win
_SOLVE_BYTES = 8e6

# the largest scaled residual of a patch or defining condition: round-off
_TOLERANCE = 1e-8


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
    D.flags.writeable = False
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


_REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _element_shapes(mesh: Mesh, els=None):
    """Normalised shapes of the elements els (all by default).

    Returns e (t, 2, 2), the edge vectors p1 - p0 and p2 - p0, the rows of
    J^T for J in `Mesh.jacobians`, scaled by the exact power of two 2^-ex
    that brings their largest component into [0.5, 1); the exponents ex
    (t,); and lower (t, 3), `Mesh.edge_flips`: whether the lower global id
    of local edge le sits at its end.
    """
    els = slice(None) if els is None else els
    e = mesh.jacobians[els].transpose(0, 2, 1)
    _, ex = np.frexp(np.abs(e).max(axis=(1, 2)))
    # C order: the blocks built on e then round as on a fresh array
    return (np.ldexp(e, -ex[:, None, None], order="C"), ex,
            mesh.edge_flips[els])


def _local_geometry(e):
    """Local edges (t, 3, 2), each directed from local vertex le+1 to le+2,
    their lengths (t, 3), the areas (t,) and the diameters (t,) of
    elements with edge vectors e."""
    tang = np.stack([e[:, 1] - e[:, 0], -e[:, 1], e[:, 0]], axis=1)
    elen = np.hypot(tang[..., 0], tang[..., 1])
    area = 0.5 * np.abs(e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])
    return tang, elen, area, elen.max(axis=1)


def _scaled_points(e, h, ref):
    """Reference points ref, (nq, 2) or (t, nq, 2), of elements with edge
    vectors e and diameters h, centred at the centroid and divided by the
    diameter: `scaled_coordinates` formed from the edge vectors alone, so
    exact under translation."""
    return ((ref - 1.0 / 3.0) @ e) / h[:, None, None]


def _edge_traces(k: int, s: np.ndarray, e: np.ndarray, lower: np.ndarray,
                 le: int):
    """Normal traces of the local flux basis of elements with edge vectors
    e and lower-end flags lower (`_element_shapes`) on their local edge le,
    at the points s of the edge parameter running from the edge's lower
    global vertex id to its higher one.

    Returns the traces (t, len(s), N), with the outward unit normal, and
    the edge lengths (t,).
    """
    tang, elen, _, h = _local_geometry(e)
    a, b = _REF_VERTICES[(le + 1) % 3], _REF_VERTICES[(le + 2) % 3]
    flip = lower[:, le, None, None]
    ref = np.where(flip, b, a) + s[None, :, None] * np.where(flip, a - b,
                                                              b - a)
    Ve = rt_values(k, _scaled_points(e, h, ref))
    nrm = np.column_stack([tang[:, le, 1], -tang[:, le, 0]]) \
        / elen[:, le, None]
    tr = (Ve.reshape(e.shape[0], -1, 2) @ nrm[:, :, None])
    return tr.reshape(e.shape[0], -1, rt_dim(k)), elen[:, le]


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
            fh.writelines(" ".join(map(repr, row)) + "\n"
                          for row in self.coeffs.tolist())


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

    Every block is computed on the element's normalised edge vectors
    (`_element_shapes`), its exact shape key, and scaled back to the
    element's size by exact powers of two: elements of one exact class
    get Dt, Trt and the rotated blocks below bit for bit alike, whatever
    their position and size.

    The rotated blocks act on the coordinates w = Q^T z, with Q a complete
    QR factor of Dt^T whose divergence moments are taken in `_const_last`
    order: DQ = Dt Q, in that order, is [R^T 0] with R^T lower triangular;
    TrQ = Trt Q holds the rotated trace blocks and LiTQ = LiT Q maps
    rotated coordinates to flux coefficients.
    """
    k = space.degree
    rule = space.rule_main
    er = space.edge_rule_main
    n_p = len(monomial_exponents(k))
    N = rt_dim(k)
    e, ex, lower = _element_shapes(space.mesh, els)
    _, _, areas, h = _local_geometry(e)
    w = rule.weights

    V = rt_values(k, _scaled_points(e, h, rule.points))
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
        tr, elen = _edge_traces(k, er.points, e, lower, le)
        Traw[:, le] = (wspow[None] @ tr) * elen[:, None, None]

    Dt = Draw @ LiT
    Trt = (Traw.reshape(els.size, -1, N) @ LiT).reshape(Traw.shape)
    Dp = Dt[:, _const_last(n_p)]
    Q = np.linalg.qr(Dp.transpose(0, 2, 1), mode="complete")[0]
    blocks = {"mass": M, "LiT": LiT, "Draw": Draw, "Dt": Dt, "Traw": Traw,
              "Trt": Trt, "Q": Q, "DQ": Dp @ Q, "TrQ": Trt @ Q[:, None],
              "LiTQ": LiT @ Q}
    # back to the element's size by exact powers of two, in place
    size = np.ldexp(1.0, ex)[:, None, None]
    M *= size * size
    LiT /= size
    Draw *= size
    Traw *= size[..., None]
    blocks["LiTQ"] /= size
    return blocks


def _fill_blocks(space: FeSpace, els: np.ndarray, rows: np.ndarray, out):
    """Write the `_shape_blocks` block named name of element els[i] to
    out[name][rows[i]], for each name of the dict out; "DQ" is written as
    its lower triangular leading n_p x n_p block R^T alone.

    The elements go in batches whose blocks, N (4 N + 3 n_p + 9 (k+1))
    numbers per element, take at most `_SOLVE_BYTES`; the transients of
    one batch come to less than twice that.
    """
    k = space.degree
    N = rt_dim(k)
    n_p = len(monomial_exponents(k))
    step = max(8, int(_SOLVE_BYTES / (8 * N * (4 * N + 3 * n_p
                                                + 9 * (k + 1)))))
    for s0 in range(0, els.size, step):
        part = _shape_blocks(space, els[s0:s0 + step])
        for name, a in out.items():
            b = part[name]
            a[rows[s0:s0 + step]] = b[..., :n_p] if name == "DQ" else b
        del part  # free before the next batch's transients


def _flux_coefficients(space: FeSpace, w: np.ndarray) -> np.ndarray:
    """Flux coefficients (nt, N) of the rotated coordinates w (nt, N):
    those of element t are LiTQ of its class's first element
    (`_shape_blocks`) applied to w[t], times the exact power of two
    2^(ex_first - ex_t)."""
    mesh = space.mesh
    N = rt_dim(space.degree)
    ekey, ex = _element_keys(mesh)
    efirst, ecls, _ = _row_classes(ekey)
    LiTQ = np.empty((efirst.size, N, N))
    _fill_blocks(space, efirst, np.arange(efirst.size), {"LiTQ": LiTQ})
    d = ex[efirst][ecls] - ex
    out = np.empty_like(w)
    for batch in element_batches(mesh):
        els = batch.els
        out[els] = np.ldexp(_apply(LiTQ[ecls[els]], w[els]), d[els, None])
    return out


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


def _edge_rhs(space: FeSpace, J: np.ndarray):
    """Hat-weighted jump moments per edge.

    J holds normal jumps at the points of space.edge_rule_main, one row per
    edge of the mesh.  Returns (ne, 2, k+1): variant 0 weights with the hat
    of the lower endpoint (1 - s in the global edge parameter), variant 1
    with s.  Boundary edge rows are zero and never used.
    """
    k = space.degree
    er = space.edge_rule_main
    s = er.points
    phis = np.column_stack([1.0 - s, s])
    spow = s[:, None] ** np.arange(k + 1)[None, :]
    W = er.weights[:, None, None] * phis[:, :, None] * spow[:, None, :]
    return -np.einsum("eq,qvb->evb", J * space.mesh.edge_lengths[:, None], W)


def _const_last(n_p: int) -> np.ndarray:
    """Order of the divergence moments with the constant one last."""
    return np.roll(np.arange(n_p), -1)


def _forward(DQ, rdiv):
    """U, the first n_p rotated coordinates that meet the divergence rows
    rdiv (t, 3, n_p) of each slot, by forward substitution against the
    lower triangular R^T (t, n_p, n_p), the leading block of the rotated
    divergence blocks DQ; the constant moment comes last, so only
    the last row involves the last of them.  The rim rows of
    `_patch_rhs` take it too, one slot at a time."""
    U = np.empty_like(rdiv)
    for i in range(rdiv.shape[2]):
        U[..., i] = (rdiv[..., i] - np.einsum(
            "tj,tsj->ts", DQ[:, i, :i], U[..., :i])) / DQ[:, i, i, None]
    return U


# -- patch systems ------------------------------------------------------


def _element_keys(mesh: Mesh):
    """Exact shape key of each element, (nt, 5) int64, and the
    power-of-two exponent ex of each element's size.

    Two elements share a class (`_row_classes` of the keys) only if their
    edge vectors p1 - p0, p2 - p0, in local vertex order and scaled by
    2^-ex (an exact scaling), agree bit for bit, and the lower global id
    sits at the same end of each local edge, which fixes the edge
    parameter of the trace blocks (`_element_shapes`).  The whitened
    blocks Dt and Trt of such elements then agree bit for bit
    (`_shape_blocks`), and LiT of element t is that of its class's first
    element times 2^(ex_first - ex_t).
    """
    e, ex, lower = _element_shapes(mesh)
    return (np.column_stack([e.reshape(-1, 4).view(np.int64),
                             lower @ np.array([1, 2, 4])]), ex)


def _void_rows(key):
    """Each row of an integer array as one np.void of its int64 bytes."""
    key = np.ascontiguousarray(key, dtype=np.int64)
    return key.view(np.dtype((np.void, 8 * key.shape[1]))).ravel()


def _row_classes(key):
    """First row, class and class size of each distinct row of an integer
    array, rows compared as raw bytes (faster than np.unique on axis 0).
    Classes are numbered in the order of their first rows, so that on
    distinct rows class i is row i."""
    _, first, cls, counts = np.unique(_void_rows(key), return_index=True,
                                      return_inverse=True, return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[cls], counts[order]


def _fan_links(mesh: Mesh):
    """The counterclockwise walk around each vertex, one step per entry
    of the vertex-triangle table `mesh._vertex_triangles`.

    For entry i (triangle t, slot of the vertex nu) returns: nxt[i], the
    entry of nu in the triangle beyond the edge of t through nu that comes
    next counterclockwise, or -1 where that edge is on the boundary;
    has_prev[i], whether some entry steps to i; spoke[i], that edge, and
    le[i], its local edge in t and in the triangle beyond; imposed[i],
    whether the rim edge of t opposite nu carries a zero-trace constraint.
    """
    ptr, ind, slot = mesh._vertex_triangles
    nt = mesh.n_triangles
    fwd = (slot + 1) % 3
    spoke = mesh.edge_of_triangle[ind, fwd]
    other = (mesh.edge_triangles[spoke, 0] == ind).astype(np.int64)
    beyond = mesh.edge_triangles[spoke, other]
    le = mesh.edge_local[spoke, other]
    # nu is one end of local edge le of the triangle beyond
    nu = np.repeat(np.arange(mesh.n_vertices), np.diff(ptr))
    head = (le + 1) % 3
    slot2 = np.where(mesh.triangles[beyond, head] == nu, head, (le + 2) % 3)
    entry = np.empty(3 * nt, dtype=np.int64)
    entry[ind * 3 + slot] = np.arange(3 * nt)
    bed = mesh.boundary_edge
    nxt = np.where(bed[spoke], -1, entry[beyond * 3 + slot2])
    has_prev = np.zeros(3 * nt, dtype=bool)
    has_prev[nxt[nxt >= 0]] = True
    return (nxt, has_prev, spoke, np.stack([fwd, le], axis=1),
            ~bed[mesh.edge_of_triangle[ind, slot]])


def _fan_layout(vs, mg, sg, mesh, links):
    """Index tables of the patches vs, which share their numbers of
    elements mg and of spokes sg, each listed fan after fan, counterclockwise within a fan (links:
    `_fan_links`).  Every fan starts at its first element: an open fan at
    the domain boundary, in the triangle-id order of the starts, a closed
    fan at its lowest-id element, whose constant-divergence row is dropped
    if the patch is fully interior (every rim edge constrained).
    Raises EquilibrationError if a walk does not list each element of its
    patch exactly once.

    Returns the layout and link (P, mg), whether a spoke joins a position
    to the next.  The layout holds els, slots (P, mg), the elements and the
    slot of the patch vertex in each; imposed (P, mg), whether the rim edge
    carries a zero-trace constraint; spokes (P, sg), the interior edges
    through the vertex at the linked positions; pos, le (P, sg, 2), the
    positions each spoke joins, its own and the next, and its local edge
    in each.
    """
    nxt, has_prev, spoke, le, imposed = links
    ptr, ind, slotv = mesh._vertex_triangles
    P = vs.size
    p = np.arange(P)[:, None]
    take = ptr[vs][:, None] + np.arange(mg)[None, :]
    first = ~has_prev[take]
    first[:, 0] |= ~first.any(axis=1)  # a closed fan: its lowest id
    # the starts of the fans in triangle-id order, then -1
    order = np.argsort(~first, axis=1, kind="stable")
    starts = np.where(first[p, order], take[p, order], -1)
    idx = np.empty((P, mg), dtype=np.int64)
    cur = starts[:, 0]
    fan = np.zeros(P, dtype=np.int64)
    for i in range(mg):
        idx[:, i] = cur
        cur = nxt[cur]
        end = cur < 0
        fan += end
        cur[end] = starts[end, np.minimum(fan[end], mg - 1)]
    bad = (np.sort(idx, axis=1) != take).any(axis=1)
    if bad.any():
        raise EquilibrationError(f"the patch of vertex {vs[np.argmax(bad)]}"
                                 " is no union of fans around it")
    link = nxt[idx] >= 0
    j = np.nonzero(link)[1].reshape(P, sg)
    s = idx[p, j]
    return ((ind[idx], slotv[idx], imposed[idx], spoke[s],
             np.stack([j, (j + 1) % mg], axis=2), le[s]), link)


def _rim_rotation(X):
    """Householder steps that condense the rim rows, in place.

    X (3, K1, n, B) holds, for each (element, slot) pair of a batch, in its
    last axis, the rotated trace rows of the element's three local edges
    over n coordinates that the divergence leaves free, the rim edge first.
    Reflectors H_i = I - v_i v_i^T, built on the rim rows and applied to
    every row, turn X into X Q2, Q2 = H_0 ... H_(K1-1) orthogonal, whose rim
    rows are [R2^T 0] with R2^T lower triangular.  Returns V (K1, n, B), the
    v_i.  A column of X that is zero in every row stays zero, untouched by
    every reflector.  Each pair is turned alike whatever the others.
    """
    _, K1, n, B = X.shape
    X = X.reshape(3 * K1, n, B)
    V = np.zeros((K1, n, B))
    for i in range(K1):
        x = X[i, i:]
        nx = np.sqrt((x * x).sum(axis=0))
        alpha = np.where(x[0] < 0, nx, -nx)
        v = V[i, i:]
        v[...] = x
        v[0] -= alpha
        v /= np.sqrt(nx * (nx + np.abs(x[0])))
        rest = X[i + 1:, i:]
        rest -= (rest * v).sum(axis=1)[:, None] * v
        X[i, i] = alpha
        X[i, i + 1:] = 0.0
    return V


def _reflect(V, x):
    """Q2 x for the reflectors V (K1, n, B) of `_rim_rotation` and vectors
    x (n, B), in place: from the rim-rotated coordinates of each pair to
    the coordinates it was turned from."""
    for v in V[::-1]:
        x -= (x * v).sum(axis=0) * v
    return x


def _edge_blocks(layout, blocks):
    """The rotated trace blocks TrQ (P, m, 3, K1, N) of each element of the
    patches layout on its three local edges, the rim edge first."""
    els, slots = layout[:2]
    TrQ = blocks["TrQ"]
    row = blocks["ecls"][els][..., None] * 3 \
        + (slots[..., None] + np.arange(3)) % 3
    return np.take(TrQ.reshape(-1, *TrQ.shape[2:]), row, axis=0)


def _rim_frames(layout, blocks, deficient):
    """The rim condensation of each element of the patches layout.

    Returns X (3, K1, Nf+1, P m), the part of the rotated trace blocks of
    each element's three local edges (`_edge_blocks`) on the Nf = N - n_p
    coordinates the divergence leaves free and, last, the
    constant-divergence coordinate where it is free too (the first element
    of a fully interior patch; a zero column elsewhere), turned by
    `_rim_rotation`, with its reflectors V (K1, Nf+1, P m), the elements in
    the last axis in patch order; and `_columns` of the layout.
    """
    P, mg = layout[0].shape
    G = _edge_blocks(layout, blocks)
    n_p = blocks["DQ"].shape[1]
    K1, N = G.shape[3:]
    Nf = N - n_p
    X = np.empty((3, K1, Nf + 1, P * mg))
    X[:, :, :Nf] = G[..., n_p:].reshape(-1, 3, K1, Nf).transpose(1, 2, 3, 0)
    X[:, :, Nf] = 0.0
    if deficient:
        X[:, :, Nf, ::mg] = G[:, 0, ..., n_p - 1].transpose(1, 2, 0)
    V = _rim_rotation(X)
    return X, V, _columns(layout[2], deficient, K1, Nf)


def _take_frames(frames, o):
    """The `_rim_frames` of copies of the patches o of frames, with X cut
    to the K1 columns that `_patch_rhs` reads."""
    X, V, (cols, C) = frames
    K1, mg = X.shape[1], cols.shape[1]
    b = (o[:, None] * mg + np.arange(mg)).ravel()
    return (np.take(X[:, :, :K1], b, axis=3), np.take(V, b, axis=2),
            (cols[o], C))


def _columns(imposed, deficient, K1, Nf):
    """Where each element's rim-rotated coordinates go among the columns
    of the reduced system of its patch.

    Element j of a patch keeps, in patch order, its rotated coordinates
    from K1 on if its rim edge is constrained (the first K1 are fixed by
    the rim rows) or from 0 on otherwise, up to Nf, or up to Nf + 1 with
    the constant-divergence coordinate on the first element of a fully
    interior patch.  Returns the column of each coordinate (P, m, Nf+1),
    C for one that is fixed or absent, and the column count C.
    """
    P, mg = imposed.shape
    nfix = K1 * imposed
    top = np.full((P, mg), Nf)
    top[:, 0] += deficient
    width = top - nfix
    off = np.cumsum(width, axis=1) - width - nfix
    C = int(width[0].sum())
    c = np.arange(Nf + 1)
    return np.where((c >= nfix[..., None]) & (c < top[..., None]),
                    off[..., None] + c, C), C


def _spoke_sides(layout):
    """Index arrays (P, 1, 1) and (P, s, 2) that pick, from arrays over
    the positions of each patch and the local edges of each element in
    `_rim_frames` order, the two sides of each spoke."""
    slots, pos, le = layout[1], layout[4], layout[5]
    p = np.arange(slots.shape[0])[:, None, None]
    return p, pos, (le - slots[p, pos]) % 3


def _assemble_patches(layout, frames):
    """Reduced constraint matrices of patches sharing one (m, s, t) group.

    Rows are the k+1 jump moments of each spoke; the divergence rows and
    the trace rows of the constrained rim edges are condensed out.
    Columns are the free rim-rotated coordinates of each element in patch
    order (`_columns`), with the entries of the rotated trace blocks X of
    `_rim_frames`.
    """
    X, _, (cols, C) = frames
    P, sg = layout[3].shape
    mg = cols.shape[1]
    K1 = X.shape[1]
    R = sg * K1
    p, pos, r = _spoke_sides(layout)
    # flat positions, one past the end for a column that is not kept
    row = (p[..., None, None] * R + np.arange(sg)[:, None, None, None] * K1
           + np.arange(K1)[:, None]) * C  # (P, sg, 1, K1, 1)
    col = cols[p, pos][..., None, :]
    flat = np.zeros(P * R * C + 1)
    flat[np.where(col < C, row + col, P * R * C)] = X[r, :, :, p * mg + pos]
    return flat[:-1].reshape(P, R, C)


def _patch_rhs(layout, vs, mesh, blocks, Jr, deficient, frames):
    """Reduced right-hand sides of the patches vs.

    The jump moments less the traces of the fixed coordinates of each
    element: those the divergence rows fix and those the rim rows fix in
    turn, by forward substitution against [R2^T 0].  Returns the
    right-hand sides, the fixed coordinates (P, m, n_p) — U of the patch
    vertex's slot, with the free constant-divergence coordinate of a fully
    interior patch's first element set to zero — and y (K1, P m), the
    rim-fixed rotated coordinates (zero where the rim edge is free), the
    scale of the patch data and the divergence data rdiv (P, m, n_p) of
    each slot.
    """
    els, slots, imposed, spokes = layout[:4]
    X = frames[0]
    P, mg = els.shape
    n_p = blocks["U"].shape[2]
    K1 = X.shape[1]
    fixed = blocks["U"][els, slots]
    if deficient:
        fixed[:, 0, -1] = 0.0
    # their traces on the three local edges of each element, rim first
    ft = np.einsum("pmlkj,pmj->pmlk",
                   _edge_blocks(layout, blocks)[..., :n_p], fixed)
    # the rim rows [R2^T 0] fix the first K1 rim-rotated coordinates
    rim = np.where(imposed[..., None], -ft[:, :, 0], 0.0)
    y = _forward(np.moveaxis(X[0, :, :K1], 2, 0),
                 rim.reshape(-1, 1, K1))[:, 0].T
    ft[:, :, 1:] += (X[1:, :, :K1] * y).sum(axis=2).transpose(2, 0, 1) \
        .reshape(P, mg, 2, K1)
    var = (mesh.edges[spokes, 0] != vs[:, None]).astype(np.int64)
    jumps = Jr[spokes, var]
    p, pos, r = _spoke_sides(layout)
    b = jumps - ft[p[..., 0], pos[..., 0], r[..., 0]] \
        - ft[p[..., 0], pos[..., 1], r[..., 1]]
    rdiv = blocks["rdiv"][els, slots]
    scale = 1.0 + np.maximum(np.abs(rdiv).max(axis=(1, 2)),
                             np.abs(jumps).max(axis=(1, 2), initial=0.0))
    return b.reshape(P, -1), fixed, y, scale, rdiv


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


def _refine(As, G, cls, bs, z, r):
    """Residual refinement sweeps, in place, on the minimal-norm solutions
    z of scaled systems with right-hand sides bs and residuals r, one row
    per patch, until each residual is at round-off (three sweeps at most).
    Patch p has the scaled matrix As[cls[p]] and its Gram matrix
    G[cls[p]]; only the patches that take a sweep gather theirs."""
    resid = np.abs(r).max(axis=1, initial=0.0)
    # scaled rows have unit norm, so ||z|| + max|bs| sets the natural
    # residual scale; ||z|| >= 0, so it is formed only where the residual
    # passes 1e-14 max|bs|
    scale = np.abs(bs).max(axis=1, initial=0.0)
    near = np.nonzero(resid > 1e-14 * scale)[0]
    scale[near] += np.sqrt(np.einsum("pc,pc->p", z[near], z[near]))
    for _ in range(3):
        bad = np.nonzero(resid > 1e-14 * scale)[0]
        if bad.size == 0:
            break
        Ab = As[cls[bad]]
        z[bad] += _apply(Ab.transpose(0, 2, 1), np.linalg.solve(
            G[cls[bad]], r[bad][..., None])[..., 0])
        r[bad] = bs[bad] - _apply(Ab, z[bad])
        resid[bad] = np.abs(r[bad]).max(axis=1)


def _minnorm_solve(A, bb, cls):
    """Minimal-norm solutions and row residuals of reduced systems.

    A (c, R, C) holds the reduced matrices (`_assemble_patches`) of c
    patch classes, bb (P, R) the right-hand sides of their patches, sorted
    by class, and cls (P,) the class of each.  The systems are
    underdetermined, consistent and of full row rank: the divergence and
    rim rows are gone, having fixed their coordinates by forward
    substitution, and on fully interior patches the one dependent row, the
    first element's constant-divergence moment, is dropped and its
    coordinate solved for instead.  Rows are scaled to unit norm, which
    changes neither the row space nor the minimum-norm solution.  The
    row-space solution comes from semi-normal equations on the row Gram
    matrix, whose conditioning the row scaling keeps far enough below
    1/eps that a refinement sweep (`_refine`), when one is triggered at
    all, reaches round-off.  Each class's Gram matrix is factored once
    and all its patches are solved as the columns of one right-hand side,
    by one batched LU over the classes with as many patches; a class of
    one is a plain batched LU solve.
    """
    As, D = _scale_rows(A)
    G = As @ As.transpose(0, 2, 1)
    D = D[cls]
    bs = bb / D
    z = np.empty((bs.shape[0], A.shape[2]))
    r = np.empty_like(bs)
    counts = np.bincount(cls)
    start = np.cumsum(counts) - counts
    for n in np.unique(counts):
        q = np.nonzero(counts == n)[0]
        p = start[q, None] + np.arange(n)
        Aq, Gq = (As, G) if q.size == counts.size else (As[q], G[q])
        B = bs[p].transpose(0, 2, 1)
        Z = Aq.transpose(0, 2, 1) @ np.linalg.solve(Gq, B)
        z[p] = Z.transpose(0, 2, 1)
        r[p] = (B - Aq @ Z).transpose(0, 2, 1)
    _refine(As, G, cls, bs, z, r)
    return z, np.abs(r * D).max(axis=1, initial=0.0)


class ElementBlocks:
    """Rotated blocks of exact element classes, kept from one `equilibrate`
    call to the next; `afem.run` passes one from level to level.

    `shapes` maps the bytes of an element class (the degree and the
    `_element_keys` row) to its row in the arrays of `blocks`: "DQ", the
    lower triangular leading n_p x n_p block R^T of the rotated divergence
    block of `_shape_blocks`, and "TrQ", the rotated trace blocks, both
    the same bit for bit whichever element of the class they are built on.
    It holds one generation: each call keeps only the classes of its own
    mesh, frees the previous call's arrays before it builds new classes,
    and leaves the cache empty if the build raises.
    """

    def __init__(self):
        self.shapes: dict[bytes, int] = {}
        self.blocks: dict[str, np.ndarray] = {}


@dataclass(frozen=True)
class EquilibrationReport:
    """Residuals of the defining conditions of an equilibrated flux and
    where each is worst (jump_edge -1 on a mesh without interior edges)."""

    div_residual: float
    jump_residual: float
    patch_residual: float
    div_element: int
    jump_edge: int
    patch_vertex: int
    tolerance: ClassVar[float] = _TOLERANCE

    @property
    def ok(self) -> bool:
        return max(self.div_residual, self.jump_residual,
                   self.patch_residual) <= self.tolerance


@dataclass(frozen=True)
class EquilibratedFlux:
    """Result of the patchwise flux equilibration.

    w_delta[t] holds the correction on element t in the rotated whitened
    coordinates of its class (`_shape_blocks`), in which the L2 norm is the
    Euclidean one.  q_delta, the correction in the flux basis, is formed
    from them on first access and kept.
    eta_delta[t] is the elementwise estimator, the L2 norm of the correction
    on element t; the bound |||u - u_h||| <= sqrt(sum eta_delta^2) holds up
    to data oscillation.  eta_star[nu] is the L2 norm of the patch
    contribution of vertex nu, the localised (starwise) estimator.
    patch_residuals[nu] is the largest residual, in whitened coordinates,
    of any row of the full patch system of nu: the jump rows solved, the
    divergence rows and the trace rows of the constrained rim edges fixed
    by forward substitution, and on a fully interior patch the dropped
    constant-divergence row.
    jumps[e] holds the normal jumps of grad u_h across edge e at the points
    of u_h.space.edge_rule_main (zero on boundary edges): the data the jump
    rows were solved against, which the residual estimators and
    `verify_equilibration` reuse.
    patch_classes counts the patch classes of two or more patches, each
    of whose Gram matrices is factored once for its patches in a solver
    batch, and shared_patches the patches in them.
    """

    u_h: ScalarField = dc_field(repr=False)
    w_delta: np.ndarray = dc_field(repr=False)
    eta_delta: np.ndarray = dc_field(repr=False)
    eta_star: np.ndarray = dc_field(repr=False)
    patch_residuals: np.ndarray = dc_field(repr=False)
    jumps: np.ndarray = dc_field(repr=False)
    patch_classes: int
    shared_patches: int

    @property
    def mesh(self) -> Mesh:
        return self.u_h.space.mesh

    @cached_property
    def q_delta(self) -> FluxField:
        space = self.u_h.space
        return FluxField(space.mesh, space.degree,
                         _flux_coefficients(space, self.w_delta))

    def total_flux(self) -> FluxField:
        """sigma = grad u_h + correction; normal-continuous, equilibrated."""
        return gradient_flux(self.u_h) + self.q_delta

    @property
    def eta_delta_total(self) -> float:
        return float(np.sqrt((self.eta_delta ** 2).sum()))

    def verify(self, f) -> EquilibrationReport:
        return verify_equilibration(self, f)


def equilibrate(u_h: ScalarField, f,
                cache: ElementBlocks | None = None) -> EquilibratedFlux:
    """Reconstruct the equilibrated flux correction for a discrete solution.

    f is the load, called as f(x, y) on arrays.  cache holds the element
    class blocks of earlier calls of the same run (`ElementBlocks`); the
    result is the same bit for bit whatever it holds.
    Raises EquilibrationError if any patch problem is inconsistent beyond
    `_TOLERANCE`, which indicates that u_h is not the Galerkin solution of
    the assembled system (or that data were changed between solve and
    equilibration).
    """
    space = u_h.space
    mesh = space.mesh
    k = space.degree
    n_p = len(monomial_exponents(k))
    N = rt_dim(k)
    K1 = k + 1
    Nf = N - n_p
    nt, nv = mesh.n_triangles, mesh.n_vertices
    if cache is None:
        cache = ElementBlocks()

    ekey, _ = _element_keys(mesh)
    efirst, ecls, _ = _row_classes(ekey)
    nc = efirst.size
    # DQ (its leading block R^T) and TrQ per element class: the cached
    # classes in one gather, the new ones pointed at row 0 and then built
    # on their first element once the old arrays are freed; a build that
    # raises leaves the cache empty, never naming unfilled rows
    names = _void_rows(np.column_stack([np.full(nc, k),
                                        ekey[efirst]])).tolist()
    row = np.fromiter((cache.shapes.get(n, -1) for n in names), np.int64,
                      nc)
    new = np.nonzero(row < 0)[0]
    if new.size < nc:
        shape = {name: np.take(a, np.maximum(row, 0), axis=0)
                 for name, a in cache.blocks.items()}
    else:
        shape = {"DQ": np.empty((nc, n_p, n_p)),
                 "TrQ": np.empty((nc, 3, K1, N))}
    cache.shapes, cache.blocks = {}, {}
    _fill_blocks(space, efirst[new], new, shape)
    cache.shapes, cache.blocks = dict(zip(names, range(nc))), shape
    # rdiv and U per element
    blocks = {"ecls": ecls, **shape, "rdiv": np.empty((nt, 3, n_p)),
              "U": np.empty((nt, 3, n_p))}
    order = _const_last(n_p)
    for batch in element_batches(mesh):
        els = batch.els
        rdiv = _divergence_rhs(u_h, f, els)[..., order]
        blocks["rdiv"][els] = rdiv
        blocks["U"][els] = _forward(blocks["DQ"][ecls[els]], rdiv)

    links = _fan_links(mesh)
    J, _ = normal_jumps(u_h)
    Jr = _edge_rhs(space, J)

    # the sizes (m, s, t) of each patch packed into one integer that sorts
    # alike, as s, t <= m
    m = np.diff(mesh._vertex_triangles[0])
    vt = np.repeat(np.arange(nv), m)
    scnt = np.bincount(vt[links[0] >= 0], minlength=nv)
    tcnt = np.bincount(vt[links[4]], minlength=nv)
    base = int(m.max()) + 1
    code, ginv = np.unique((m * base + scnt) * base + tcnt,
                           return_inverse=True)
    uniq = np.stack([code // base ** 2, code // base % base, code % base],
                    axis=1)

    # the correction of each (element, slot) pair, which one patch alone
    # writes; summed over the slots once all are in
    w_slot = np.zeros((nt, 3, N))
    eta_star = np.zeros(nv)
    patch_res = np.zeros(nv)
    ratio = np.zeros(nv)  # patch residual over the scale of the patch data
    n_classes = n_shared = 0

    def solve_batch(vs, part, cls, deficient):
        # the patches vs with the layout part, in class order: frames and
        # matrix are built on the first patch of each class and taken by
        # the others; every array of the batch is freed on return
        ci = cls - cls[0]
        head = np.nonzero(np.diff(ci, prepend=-1))[0]
        alone = head.size == vs.size
        rep = part if alone else tuple(a[head] for a in part)
        frames = _rim_frames(rep, blocks, deficient)
        each = frames if alone else _take_frames(frames, ci)
        bb, fixed, y, scale, rdiv = _patch_rhs(
            part, vs, mesh, blocks, Jr, deficient, each)
        z, resid = _minnorm_solve(_assemble_patches(rep, frames), bb, ci)
        els, slots, imposed = part[:3]
        _, V, (cols, _) = each
        P, mg = els.shape
        # the rim-rotated coordinates, turned back to the class frame
        om = np.concatenate([z, np.zeros((P, 1))], axis=1)[
            np.arange(P).repeat(mg), cols.reshape(P * mg, -1).T]
        om[:K1] += y
        om = _reflect(V, om).T.reshape(P, mg, -1)
        w = np.empty((P, mg, N))
        w[..., :n_p] = fixed
        w[..., n_p:] = om[..., :Nf]
        if deficient:
            w[:, 0, n_p - 1] = om[:, 0, Nf]
        # every divergence row, the dropped one included: that is where
        # a u_h without Galerkin orthogonality shows; and every rim row
        dres = np.einsum("pmij,pmj->pmi", blocks["DQ"][ecls[els]],
                         w[..., :n_p]) - rdiv
        rim = np.take(blocks["TrQ"].reshape(-1, K1, N), ecls[els] * 3 + slots,
                      axis=0)
        rres = np.einsum("pmij,pmj->pmi", rim, w) * imposed[..., None]
        patch_res[vs] = np.maximum(resid, np.maximum(
            np.abs(dres).max(axis=(1, 2)), np.abs(rres).max(axis=(1, 2))))
        ratio[vs] = patch_res[vs] / scale
        eta_star[vs] = np.sqrt(np.einsum("pjc,pjc->p", w, w))
        w_slot[els, slots] = w

    for g, (mg, sg, tg) in enumerate(uniq):
        members = np.nonzero(ginv == g)[0]
        deficient = bool(sg == mg and tg == mg)
        # the reduced matrix of one patch, and the trace blocks and rim
        # frames that `_rim_frames` builds on it
        size = sg * K1 * (mg * Nf - tg * K1 + deficient) \
            + mg * 3 * K1 * (N + Nf + 1)
        step = max(8, int(_SOLVE_BYTES / (8 * size)))
        layout, link = _fan_layout(members, mg, sg, mesh, links)
        els, slots, imposed = layout[:3]
        _, cls, counts = _row_classes(
            ((ecls[els] * 3 + slots) * 2 + imposed) * 2 + link)
        n_classes += int((counts > 1).sum())
        n_shared += int(counts[counts > 1].sum())
        # the patches in class order, classes numbered by their first patch
        todo = np.argsort(cls, kind="stable")
        for s0 in range(0, todo.size, step):
            sel = todo[s0:s0 + step]
            solve_batch(members[sel], tuple(a[sel] for a in layout),
                        cls[sel], deficient)

    worst = int(np.argmax(ratio))
    if ratio[worst] > _TOLERANCE:
        raise EquilibrationError(
            f"patch problem at vertex {worst} is inconsistent: scaled "
            f"residual {ratio[worst]:.3e} exceeds {_TOLERANCE:.1e}; the "
            "input field does not satisfy Galerkin orthogonality")

    w_delta = w_slot.sum(axis=1)
    del w_slot
    eta_delta = np.sqrt(np.einsum("tc,tc->t", w_delta, w_delta))
    return EquilibratedFlux(u_h, w_delta, eta_delta, eta_star, patch_res, J,
                            n_classes, n_shared)


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
    P = reference_projector(rule, k)

    div_res = np.empty(mesh.n_triangles)
    for batch in element_batches(mesh, rule.points, degree=k):
        X = batch.X
        pf = f(X[..., 0], X[..., 1]) @ P.T
        lap = element_laplacians(u_h, rule.points, batch.els)
        dv = flux.q_delta._divergence(batch)
        scale = np.abs([pf, lap]).max(axis=(0, 2), initial=1.0)
        div_res[batch.els] = np.abs(dv + pf + lap).max(axis=1) / scale

    er = space.edge_rule_main
    J, interior = flux.jumps, ~mesh.boundary_edge
    qn = np.zeros_like(J)
    et, el = mesh.edge_triangles, mesh.edge_local
    for side in (0, 1):
        for le in range(3):
            rows = np.nonzero(interior & (el[:, side] == le))[0]
            if rows.size == 0:
                continue
            t = et[rows, side]
            e, _, lower = _element_shapes(mesh, t)
            tr, _ = _edge_traces(k, er.points, e, lower, le)
            qn[rows] += np.einsum("tqj,tj->tq", tr, flux.q_delta.coeffs[t])
    jump_res = np.abs(qn + J).max(axis=1) / (1.0 + np.abs(J).max())

    t, e, nu = (int(np.argmax(r))
                for r in (div_res, jump_res, flux.patch_residuals))
    return EquilibrationReport(float(div_res[t]), float(jump_res[e]),
                               float(flux.patch_residuals[nu]), t,
                               e if interior.any() else -1, nu)


def prager_synge_terms(u_h: ScalarField, flux: EquilibratedFlux, grad_exact):
    """The three sides of the hypercircle identity.

    Returns (error, flux_distance, bound): the energy error of u_h, the L2
    distance between the exact flux and the reconstructed one, and the
    computable bound (the L2 norm of the correction).  When the balance
    div sigma = -f holds exactly, error^2 + flux_distance^2 = bound^2.
    """
    space = u_h.space
    qdeg = 2 * space.degree + 8
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
