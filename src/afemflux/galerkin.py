"""Conforming Lagrange finite elements of degree 1..4 on triangulations.

Degrees of freedom are the lattice nodes: one per vertex, k-1 per edge
(ordered along the edge from its lower-id vertex) and the remaining interior
nodes per triangle, numbered vertices first, then edges, then interiors, so
unknown ids are mesh-independent functions of (entity, position).  The nodal
basis on the reference triangle is computed once per degree by inverting the
monomial Vandermonde matrix in exact rational arithmetic.

Homogeneous Dirichlet data is imposed by eliminating boundary rows/columns;
the reduced SPD system is factorised directly (`splu`) up to `_DIRECT_LIMIT`
free unknowns and solved with Jacobi-preconditioned conjugate gradients to
the relative residual `_CG_RTOL` beyond that.  Each solver wins on some
input (BLAS on one thread, one run each).  On a uniform P2 square with
261,121 unknowns `splu` took 13.2 s and 1,085 MB peak RSS, conjugate
gradients 251 iterations, 2.45 s and 376 MB.  On the adaptive P1 L-shape
mesh with 38,818 unknowns conjugate gradients took 859 iterations, and the
solve 0.65 s against 0.33 s with `splu`.

The stiffness matrix is built once per exact shape class of the mesh
(`Mesh.shape_classes`).  A member's Jacobian is its class's first
element's times an exact power of two 2^d, so its mapped gradients scale
exactly by 2^-d and its area by 2^2d, and its element matrix, the Gram
matrix of the gradients times the area, equals the first element's bit for
bit: numpy's stacked matmul runs one gemm per element whatever the batch.
The element matrices are therefore computed on the first element of each
class alone, in batches of `_BATCH` of them, and gathered to every
element; the index triplets come straight from the dof map.
Contributions are accumulated in COO form and merged by scipy's
deterministic duplicate summation, so repeated runs are bitwise
reproducible.

Every other loop over the elements of a mesh runs through
`element_batches`: the ids of `_BATCH` elements at a time, nothing else; a
loop that reads points maps them itself with `physical_points`.  (The flux
basis of equilibration has its own frame, built from the class key
`Mesh.scaled_edges`, and its shape blocks are built on the first elements
of the same classes.)
Affine maps and edge orientations come from the mesh: `Mesh.jacobians`,
`Mesh.edge_flips`.  The load is evaluated by `load_values` wherever f is
called, so f may return a scalar or anything that broadcasts to the points.

Each weighted sum over the points of a batch is one BLAS product on
contiguous data: the pointwise values times the weights (a gemv, or a gemm
for the hat-weighted variants), times the areas.  The monomials of a batch
are computed monomial-major, one contiguous (t, nq) table per monomial, and
`monomial_values` returns them as a (t, nq, n) view; the points are mapped
with a contiguous copy of J^T.  Neither moves a bit: the tables equal
those of a loop over the monomials, the points those of the product with
the strided J^T.  `assemble_load` keeps `np.add.at`, which adds the
element vectors into b element by element: a `np.bincount` per batch would
sum a dof's contributions in another grouping and move u_h in its last
bits.

Normal jumps are taken per element edge: `normal_jumps` fills an (nt, 3,
nq) table of grad u_h . n, one gemm per group of elements sharing a local
edge and its orientation (`edge_flips`), and `Mesh.edge_sums` adds the two
sides of each interior edge in one gather.  The reference points of an
edge rule on each local edge and orientation are built in one table,
`edge_points`, which the flux traces of equilibration read too.

Elementwise L2 projections: `monomial_projection` solves each element's
Gram system for coefficients; `reference_projector` gives the values of
every element's projection at a rule's points by one reference matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh, ancestor_map
from .quadrature import EdgeRule, QuadratureRule, edge_rule, triangle_rule

# elements per batch of every element loop
_BATCH = 2048

# free unknowns up to which solve_poisson factorises (see the module
# docstring), and the relative residual at which conjugate gradients stop
_DIRECT_LIMIT = 200_000
_CG_RTOL = 1e-12


class SolveError(RuntimeError):
    """Linear solver failure (singular system or no convergence)."""


# -- monomials ----------------------------------------------------------


def monomial_exponents(k: int) -> list[tuple[int, int]]:
    """Graded ordering 1, x, y, x^2, xy, y^2, ..."""
    return [(d - b, b) for d in range(k + 1) for b in range(d + 1)]


def _powers(exps, x, y):
    """px, py: x ** i and y ** i, i = 0..max degree of exps, by repeated
    products -> shape (kmax + 1,) + x.shape each, power-major."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    kmax = max(a + b for a, b in exps)
    px = np.empty((kmax + 1,) + x.shape)
    py = np.empty((kmax + 1,) + y.shape)
    px[0] = py[0] = 1.0
    for i in range(1, kmax + 1):
        np.multiply(px[i - 1], x, out=px[i])
        np.multiply(py[i - 1], y, out=py[i])
    return px, py


def monomial_values(exps, x, y) -> np.ndarray:
    """Evaluate the monomial list at arrays x, y -> shape x.shape + (n,),
    a view of a monomial-major buffer."""
    px, py = _powers(exps, x, y)
    out = np.empty((len(exps),) + px.shape[1:])
    for j, (a, b) in enumerate(exps):
        np.multiply(px[a], py[b], out=out[j])
    return np.moveaxis(out, 0, -1)


def monomial_gradients(exps, x, y) -> np.ndarray:
    """-> shape x.shape + (n, 2)."""
    px, py = _powers(exps, x, y)
    out = np.zeros(px.shape[1:] + (len(exps), 2))
    for j, (a, b) in enumerate(exps):
        if a:
            out[..., j, 0] = a * px[a - 1] * py[b]
        if b:
            out[..., j, 1] = b * px[a] * py[b - 1]
    return out


def monomial_projection(w, mono, *vals) -> np.ndarray:
    """Coefficients of the elementwise L2 projections of vals onto monomials.

    w (nq,) are the quadrature weights, mono (t, nq, n) the monomials at the
    points of each element and each of vals (t, nq) a function there.
    Returns (t, n, len(vals)), one column per function.
    """
    wm = w[:, None] * mono
    M = mono.transpose(0, 2, 1) @ wm
    r = wm.transpose(0, 2, 1) @ np.stack(vals, axis=-1)
    return np.linalg.solve(M, r)


def reference_projector(rule: QuadratureRule, degree: int) -> np.ndarray:
    """(nq, nq) P: values at the points of rule -> those of the discrete L2
    projection onto P^degree, for every element (fX (t, nq) -> fX @ P.T), as
    the projection commutes with affine maps.  Built from Q, the orthonormal
    factor of sqrt(w) V, V the monomials centred at the reference centroid:
    no normal equations."""
    x = rule.points - 1.0 / 3.0
    V = monomial_values(monomial_exponents(degree), x[:, 0], x[:, 1])
    sw = np.sqrt(rule.weights)
    Q = np.linalg.qr(sw[:, None] * V)[0]
    return (Q / sw[:, None]) @ (Q * sw[:, None]).T


def _exact_inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(mat)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1, 1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# -- reference element --------------------------------------------------

_LOCAL_EDGES = ((1, 2), (2, 0), (0, 1))  # directed; edge i is opposite vertex i


@dataclass(frozen=True)
class ReferenceElement:
    degree: int
    nodes: np.ndarray            # (n_loc, 2)
    coeffs: np.ndarray           # (n_mono, n_loc): basis j = sum_a C[a,j] m_a
    exponents: tuple
    node_kinds: tuple            # ('v', i) | ('e', local_edge, position) | ('i', m)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def values(self, pts: np.ndarray) -> np.ndarray:
        return monomial_values(self.exponents, pts[..., 0], pts[..., 1]) @ self.coeffs

    def gradients(self, pts: np.ndarray) -> np.ndarray:
        g = monomial_gradients(self.exponents, pts[..., 0], pts[..., 1])
        return np.einsum("...ad,aj->...jd", g, self.coeffs)

    def hessians(self, pts: np.ndarray) -> np.ndarray:
        px, py = _powers(self.exponents, pts[..., 0], pts[..., 1])
        H = np.zeros(px.shape[1:] + (len(self.exponents), 2, 2))
        for j, (a, b) in enumerate(self.exponents):
            if a >= 2:
                H[..., j, 0, 0] = a * (a - 1) * px[a - 2] * py[b]
            if a >= 1 and b >= 1:
                v = a * b * px[a - 1] * py[b - 1]
                H[..., j, 0, 1] = v
                H[..., j, 1, 0] = v
            if b >= 2:
                H[..., j, 1, 1] = b * (b - 1) * px[a] * py[b - 2]
        return np.einsum("...acd,aj->...jcd", H, self.coeffs)


@lru_cache(maxsize=None)
def reference_element(k: int) -> ReferenceElement:
    if not 1 <= k <= 4:
        raise ValueError(f"polynomial degree must be in 1..4, got {k}")
    verts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
             (Fraction(0), Fraction(1))]
    nodes: list[tuple[Fraction, Fraction]] = list(verts)
    kinds: list[tuple] = [("v", 0), ("v", 1), ("v", 2)]
    for le, (a, b) in enumerate(_LOCAL_EDGES):
        for t in range(1, k):
            lam = Fraction(t, k)
            nodes.append((verts[a][0] + lam * (verts[b][0] - verts[a][0]),
                          verts[a][1] + lam * (verts[b][1] - verts[a][1])))
            kinds.append(("e", le, t))
    m = 0
    for i in range(1, k):
        for j in range(1, k - i):
            nodes.append((Fraction(i, k), Fraction(j, k)))
            kinds.append(("i", m))
            m += 1
    exps = monomial_exponents(k)
    V = [[x ** a * y ** b for (a, b) in exps] for (x, y) in nodes]
    C = _exact_inverse(V)  # C[i][j] would be inverse rows; transpose below
    Cf = np.array([[float(C[a][j]) for j in range(len(nodes))]
                   for a in range(len(exps))])
    nod = np.array([[float(x), float(y)] for (x, y) in nodes])
    nod.flags.writeable = False
    Cf.flags.writeable = False
    return ReferenceElement(degree=k, nodes=nod, coeffs=Cf,
                            exponents=tuple(exps), node_kinds=tuple(kinds))


# -- finite element space ----------------------------------------------


class FeSpace:
    """Continuous P^k space on a mesh with homogeneous Dirichlet boundary."""

    def __init__(self, mesh: Mesh, degree: int):
        self.mesh = mesh
        self.degree = int(degree)
        self.ref = reference_element(self.degree)
        k = self.degree
        nt = mesh.n_triangles
        nv = mesh.n_vertices
        ne = mesh.edges.shape[0]
        n_int = (k - 1) * (k - 2) // 2
        self.n_dofs = nv + ne * (k - 1) + nt * n_int
        tris = mesh.triangles
        eot = mesh.edge_of_triangle
        dof_map = np.empty((nt, self.ref.n_nodes), dtype=np.int64)
        for idx, kind in enumerate(self.ref.node_kinds):
            if kind[0] == "v":
                dof_map[:, idx] = tris[:, kind[1]]
            elif kind[0] == "e":
                le, t = kind[1], kind[2]
                s = np.where(mesh.edge_flips[:, le], k - t, t)
                dof_map[:, idx] = nv + eot[:, le] * (k - 1) + (s - 1)
            else:
                dof_map[:, idx] = nv + ne * (k - 1) + \
                    np.arange(nt, dtype=np.int64) * n_int + kind[1]
        dof_map.flags.writeable = False
        self.dof_map = dof_map
        bnd = np.zeros(self.n_dofs, dtype=bool)
        bnd[:nv] = mesh.boundary_vertex
        if k > 1:
            eb = np.repeat(mesh.boundary_edge, k - 1)
            bnd[nv:nv + ne * (k - 1)] = eb
        bnd.flags.writeable = False
        self.boundary_dofs = bnd
        J = mesh.jacobians
        adj = np.stack([J[:, 1, 1], -J[:, 0, 1], -J[:, 1, 0], J[:, 0, 0]], 1)
        # det J = 2 * area: the mesh is counterclockwise
        self.jac_inv = adj.reshape(-1, 2, 2) / (2 * mesh.areas[:, None, None])
        self.jac_inv.flags.writeable = False

    @property
    def rule_main(self) -> QuadratureRule:
        return triangle_rule(2 * self.degree + 2)

    @property
    def rule_fine(self) -> QuadratureRule:
        return triangle_rule(2 * self.degree + 4)

    @property
    def edge_rule_main(self) -> EdgeRule:
        return edge_rule(2 * self.degree + 2)


@dataclass
class SolveReport:
    method: str
    n_unknowns: int
    iterations: int
    residual: float


@dataclass
class LinearSystem:
    """The free-dof system of a solve: its matrix in the CSC form that
    `splu` factors, its right-hand side and the solver's report."""

    matrix: sp.csc_matrix
    rhs: np.ndarray
    report: SolveReport


@dataclass
class ScalarField:
    space: FeSpace
    coeffs: np.ndarray
    system: LinearSystem | None = field(default=None, repr=False)

    def element_coeffs(self, elements=None) -> np.ndarray:
        dm = self.space.dof_map
        if elements is not None:
            dm = dm[elements]
        return self.coeffs[dm]

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        if other.space is not self.space:
            raise ValueError("fields live on different spaces")
        return ScalarField(self.space, self.coeffs - other.coeffs)


# -- element batches -----------------------------------------------------


def physical_points(mesh: Mesh, ref_pts: np.ndarray, elements=None):
    """Map reference points (nq, 2) into each element -> (nt, nq, 2)."""
    els = slice(None) if elements is None else elements
    # a contiguous copy of J^T: the stacked product then reads each
    # element's matrix in place, with the same bits as the strided view
    J = np.ascontiguousarray(mesh.jacobians[els].transpose(0, 2, 1))
    return mesh.points[mesh.triangles[els, 0], None] + ref_pts @ J


def load_values(f, X: np.ndarray) -> np.ndarray:
    """The load f(x, y) at the points X (..., 2), as float64 of shape
    X.shape[:-1]: f may return a scalar or anything that broadcasts.
    Raises ValueError, naming a point, where a value is not finite."""
    fv = np.broadcast_to(np.asarray(f(X[..., 0], X[..., 1]),
                                    dtype=np.float64), X.shape[:-1])
    bad = ~np.isfinite(fv)
    if bad.any():
        x, y = X[np.unravel_index(np.argmax(bad), bad.shape)].tolist()
        raise ValueError(f"the load is not finite at ({x!r}, {y!r})")
    return fv


def element_batches(mesh: Mesh):
    """Yield the element ids of the mesh, in order, in batches of
    `_BATCH`."""
    ids = np.arange(mesh.n_triangles)
    for lo in range(0, ids.size, _BATCH):
        yield ids[lo:lo + _BATCH]


# -- element-level evaluation helpers ----------------------------------


def element_values(field: ScalarField, ref_pts: np.ndarray, elements=None):
    tab = field.space.ref.values(ref_pts)  # (nq, n_loc)
    return field.element_coeffs(elements) @ tab.T


def element_gradients(field: ScalarField, ref_pts: np.ndarray, elements=None):
    """Physical gradients at mapped points -> (nt, nq, 2)."""
    sp_ = field.space
    G = sp_.ref.gradients(ref_pts)  # (nq, n_loc, 2)
    Ji = sp_.jac_inv if elements is None else sp_.jac_inv[elements]
    ec = field.element_coeffs(elements)
    nq = G.shape[0]
    ref_grad = (ec @ G.transpose(1, 0, 2).reshape(G.shape[1], -1))
    return ref_grad.reshape(-1, nq, 2) @ Ji


def element_laplacians(field: ScalarField, ref_pts: np.ndarray, elements=None):
    """Physical Laplacians at mapped points -> (nt, nq): the trace of
    Ji^T H Ji for the reference Hessians H, formed as H : S with
    S = Ji Ji^T."""
    sp_ = field.space
    H = sp_.ref.hessians(ref_pts)  # (nq, n_loc, 2, 2)
    Ji = sp_.jac_inv if elements is None else sp_.jac_inv[elements]
    ec = field.element_coeffs(elements)
    nq = H.shape[0]
    if not H.any():  # piecewise-linear fields have no second derivatives
        return np.zeros((ec.shape[0], nq))
    ref_hess = (ec @ H.transpose(1, 0, 2, 3).reshape(H.shape[1], -1))
    S = Ji @ Ji.transpose(0, 2, 1)
    return np.einsum("tqc,tc->tq", ref_hess.reshape(-1, nq, 4),
                     S.reshape(-1, 4))


@lru_cache(maxsize=None)
def edge_points(rule: EdgeRule) -> np.ndarray:
    """The points of an edge rule on the local edges of the reference
    triangle, (3, 2, nq, 2): [le, flip] holds them on local edge le, from
    its start a (local vertex le+1) to its end b, at a + t (b - a) with
    t = s for flip 0 and t = 1 - s for flip 1 (`Mesh.edge_flips`), so that
    the rule's parameter s runs from the lower global vertex id on both
    sides of a shared edge."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    a, b = verts[np.transpose(_LOCAL_EDGES), None]
    t = np.stack([rule.points, 1.0 - rule.points])[:, :, None]
    pts = a[:, None] + t * (b - a)[:, None]
    pts.flags.writeable = False
    return pts


def edge_restriction(k: int, rule: EdgeRule) -> np.ndarray:
    """Gradients of the P^k Lagrange basis at `edge_points` of rule,
    (3, 2, nq, n_loc, 2)."""
    return reference_element(k).gradients(edge_points(rule))


def normal_jumps(field: ScalarField) -> np.ndarray:
    """Jump of the normal gradient across each interior edge, (ne, nq), at
    the points of field.space.edge_rule_main; rows of boundary edges are
    zero.  The jump is grad u|T+ . n+ + grad u|T- . n- with outward
    normals, so it is independent of which side is called plus.
    """
    space = field.space
    mesh = space.mesh
    er = space.edge_rule_main
    nq = er.n_points
    tris, pts = mesh.triangles, mesh.points
    G = edge_restriction(space.degree, er)
    sides = np.empty((mesh.n_triangles, 3, nq))
    for le, flip in np.ndindex(G.shape[:2]):
        t = np.flatnonzero(mesh.edge_flips[:, le] == flip)
        # numpy multiplies a lone row by gemv, which rounds unlike gemm:
        # pad it to a pair, so that an element's terms do not depend on
        # how many elements share its local edge and flip
        ec = field.element_coeffs(t if t.size > 1 else np.repeat(t, 2))
        Gm = G[le, flip].transpose(1, 0, 2).reshape(G.shape[3], -1)
        rg = (ec @ Gm)[:t.size].reshape(-1, nq, 2)
        a, b = _LOCAL_EDGES[le]
        tang = pts[tris[t, b]] - pts[tris[t, a]]
        nrm = np.column_stack([tang[:, 1], -tang[:, 0]])
        nrm /= np.hypot(nrm[:, 0], nrm[:, 1])[:, None]
        # grad u . n is the reference gradient dotted with Ji n, which is
        # formed once per element
        Ji = space.jac_inv[t]
        gn = Ji[:, :, 0] * nrm[:, :1] + Ji[:, :, 1] * nrm[:, 1:]
        sides[t, le] = rg[..., 0] * gn[:, :1] + rg[..., 1] * gn[:, 1:]
    return mesh.edge_sums(sides)


# -- assembly and solve -------------------------------------------------


def _element_stiffness(space: FeSpace, els: np.ndarray) -> np.ndarray:
    """Element stiffness matrices (t, n_loc, n_loc) of the elements els."""
    rule = space.rule_main
    G = space.ref.gradients(rule.points)
    nq, nl = G.shape[:2]
    Gp = (G.reshape(nq * nl, 2) @ space.jac_inv[els]).reshape(-1, nq, nl, 2)
    Gr = Gp.transpose(0, 1, 3, 2).reshape(-1, nq * 2, nl)
    K = Gr.transpose(0, 2, 1) @ (Gr * np.repeat(rule.weights, 2)[:, None])
    K *= space.mesh.areas[els, None, None]
    return K


def assemble_stiffness(space: FeSpace) -> sp.csr_matrix:
    """The stiffness matrix: the element matrices of the first element of
    each exact shape class (`Mesh.shape_classes`), taken by the others."""
    first, cls, _ = space.mesh.shape_classes
    nl = space.ref.n_nodes
    Kc = np.empty((first.size, nl, nl))
    for lo in range(0, first.size, _BATCH):
        Kc[lo:lo + _BATCH] = _element_stiffness(space, first[lo:lo + _BATCH])
    # triplet indices in the dtype scipy would convert them to
    dm = space.dof_map.astype(sp.get_index_dtype(maxval=space.n_dofs))
    A = sp.coo_matrix(
        (Kc[cls].ravel(),
         (np.repeat(dm, nl, axis=1).ravel(), np.tile(dm, (1, nl)).ravel())),
        shape=(space.n_dofs, space.n_dofs),
    )
    return A.tocsr()


def assemble_load(space: FeSpace, f) -> np.ndarray:
    rule = space.rule_main
    V = space.ref.values(rule.points)
    b = np.zeros(space.n_dofs)
    for els in element_batches(space.mesh):
        fv = load_values(f, physical_points(space.mesh, rule.points, els))
        loc = (fv * rule.weights[None, :]) @ V
        loc = loc * space.mesh.areas[els, None]
        np.add.at(b, space.dof_map[els], loc)
    return b


def solve_poisson(space: FeSpace, f) -> ScalarField:
    """Galerkin solution of -Laplace(u) = f with u = 0 on the boundary."""
    free = ~space.boundary_dofs
    # the full matrix is dropped once its free block is taken, so that it
    # is not held through the factorisation
    Af = assemble_stiffness(space)[free][:, free].tocsc()
    bf = assemble_load(space, f)[free]
    n = bf.size
    x = np.zeros(space.n_dofs)
    if n == 0:
        raise SolveError("no free unknowns: the mesh has only boundary dofs")
    if n <= _DIRECT_LIMIT:
        try:
            lu = spla.splu(Af)
        except RuntimeError as err:
            raise SolveError(f"sparse factorisation failed: {err}") from err
        xf = lu.solve(bf)
        method, iters = "splu", 0
    else:
        count = [0]

        def cb(_):
            count[0] += 1

        M = sp.diags(1.0 / Af.diagonal())
        xf, info = spla.cg(Af.tocsr(), bf, rtol=_CG_RTOL, atol=0.0,
                           maxiter=20 * n, M=M, callback=cb)
        if info != 0:
            raise SolveError(f"conjugate gradients did not converge (info={info})")
        method, iters = "cg", count[0]
    bnorm = float(np.linalg.norm(bf))
    res = float(np.linalg.norm(bf - Af @ xf)) / (bnorm if bnorm > 0 else 1.0)
    x[free] = xf
    rep = SolveReport(method=method, n_unknowns=n, iterations=iters, residual=res)
    return ScalarField(space, x, system=LinearSystem(Af, bf, rep))


# -- norms and projections ---------------------------------------------


def energy_norm(field: ScalarField) -> float:
    """|field|_{H^1} = L2 norm of the gradient (exact for FE fields)."""
    rule = field.space.rule_main
    total = 0.0
    for els in element_batches(field.space.mesh):
        g = element_gradients(field, rule.points, els)
        gg = g[..., 0] * g[..., 0] + g[..., 1] * g[..., 1]
        total += float((gg @ rule.weights) @ field.space.mesh.areas[els])
    return float(np.sqrt(total))


def energy_error(field: ScalarField, grad_exact, qdeg: int | None = None) -> float:
    """L2 norm of grad_exact - grad(field); grad_exact(x, y) -> (gx, gy)."""
    if qdeg is None:
        rule = field.space.rule_fine
    else:
        rule = triangle_rule(qdeg)
    mesh = field.space.mesh
    total = 0.0
    for els in element_batches(mesh):
        g = element_gradients(field, rule.points, els)
        X = physical_points(mesh, rule.points, els)
        gx, gy = grad_exact(X[..., 0], X[..., 1])
        d0 = np.asarray(gx) - g[..., 0]
        d1 = np.asarray(gy) - g[..., 1]
        total += float(((d0 * d0 + d1 * d1) @ rule.weights)
                       @ mesh.areas[els])
    return float(np.sqrt(total))


# -- transfer between nested meshes ------------------------------------


def prolong(fld: ScalarField, fine_space: FeSpace) -> ScalarField:
    """Exact re-expansion of a coarse field on a refined mesh.

    The fine mesh must descend from the coarse one by bisection and the fine
    degree must be at least the coarse degree.
    """
    coarse = fld.space
    if fine_space.degree < coarse.degree:
        raise ValueError("fine space degree must be >= coarse degree")
    anc = ancestor_map(coarse.mesh, fine_space.mesh)
    # (ntf, n_nodes, 2)
    X = physical_points(fine_space.mesh, fine_space.ref.nodes)
    rel = X - coarse.mesh.points[coarse.mesh.triangles[anc, 0], None]
    xi = rel @ coarse.jac_inv[anc].transpose(0, 2, 1)
    mono = monomial_values(coarse.ref.exponents, xi[..., 0], xi[..., 1])
    basis = mono @ coarse.ref.coeffs  # (ntf, n_nodes, n_loc_coarse)
    vals = (basis @ fld.element_coeffs(anc)[:, :, None])[..., 0]
    coeffs = np.zeros(fine_space.n_dofs)
    coeffs[fine_space.dof_map] = vals
    return ScalarField(fine_space, coeffs)
