"""A posteriori error estimators and data oscillation.

Four families of local indicators for the Poisson problem, all derived from
a discrete solution u_h:

  * delta:    L2 norms of the equilibrated flux correction per element;
              summing squares gives a guaranteed upper bound for the energy
              error with constant one, up to oscillation.
  * star:     L2 norms of the vertex-patch corrections; localised variant
              of the same reconstruction.
  * residual: the classical elementwise estimator combining the scaled
              interior residual with the normal jumps of the gradient.
  * residual_star: hat-weighted patchwise residual estimator, the residual
              counterpart of the star indicators.

Totals follow two conventions for patchwise quantities: the element-major
double sum over triangles and their vertices, sum_T sum_{nu in T} eta_nu^2,
which counts each patch norm once per incident triangle, and the plain root
sum of squares over vertices ("single count").

The flux and both residual families read the same data of u_h, each
evaluated once per level: the normal jumps of grad u_h, which `equilibrate`
computes for its patch problems and keeps on the flux, and the volume
residual f + lap u_h on the fine rule, from which `_residual_squares` forms
the plain and the hat-weighted squares alike.  `residual_indicators` and
`patch_residual_indicators` only combine those squares.  `oscillation`
projects f by one `reference_projector`, with no system per element.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .equilibration import ElementBlocks, EquilibratedFlux, equilibrate
from .galerkin import (
    FeSpace,
    ScalarField,
    element_batches,
    element_laplacians,
    load_values,
    reference_projector,
)
from .mesh import Mesh


def _residual_squares(u_h: ScalarField, f, jumps: np.ndarray):
    """The squared residual data of u_h, each evaluated once.

    Returns (vol, vol_hat, edge, edge_hat): the per-element integrals of
    (f + lap u_h)^2, plain (nt,) and with one column per local vertex
    carrying the phi_nu^2-weighted integral (nt, 3); and the per-edge
    integrals of the squared gradient jump, plain (ne,) and with the phi^2
    weight of the lower / higher endpoint (ne, 2).  jumps are the normal
    jumps at the points of u_h.space.edge_rule_main, as `equilibrate` keeps
    them; their boundary rows are zero, and so are those of edge, edge_hat.
    """
    space = u_h.space
    mesh = space.mesh
    rule = space.rule_fine
    w_hat = rule.weights[:, None] * rule.bary ** 2
    vol = np.empty(mesh.n_triangles)
    vol_hat = np.empty((mesh.n_triangles, 3))
    for batch in element_batches(mesh, rule.points):
        els = batch.els
        lap = element_laplacians(u_h, rule.points, els)
        r = load_values(f, batch.X) + lap
        rr = r * r
        vol[els] = (rr @ rule.weights) * mesh.areas[els]
        vol_hat[els] = (rr @ w_hat) * mesh.areas[els, None]
    er = space.edge_rule_main
    hE = mesh.edge_lengths
    s = er.points
    phis = np.column_stack([1.0 - s, s]) ** 2
    JJ = jumps * jumps
    edge = JJ @ er.weights * hE
    edge_hat = (JJ @ (er.weights[:, None] * phis)) * hE[:, None]
    return vol, vol_hat, edge, edge_hat


def residual_indicators(mesh: Mesh, vol: np.ndarray,
                        edge: np.ndarray) -> np.ndarray:
    """Classical elementwise residual indicators.

    eta_T^2 = h_T^2 |f + lap u_h|_T^2 + sum over the interior edges of T of
    h_E |jump of normal gradient|_E^2.  Every interior edge contributes to
    both neighbouring elements.  vol and edge are the plain squares of
    `_residual_squares`.
    """
    eta_sq = mesh.diameters ** 2 * vol
    eta_sq += (edge * mesh.edge_lengths)[mesh.edge_of_triangle].sum(axis=1)
    return np.sqrt(eta_sq)


def patch_residual_indicators(mesh: Mesh, vol_hat: np.ndarray,
                              edge_hat: np.ndarray) -> np.ndarray:
    """Hat-weighted patchwise residual indicators, one per vertex.

    eta_nu^2 = sum_{T in patch} h_T^2 |phi_nu (f + lap u_h)|_T^2
             + sum_{interior spokes E} h_E |phi_nu jump|_E^2.
    vol_hat and edge_hat are the hat-weighted squares of
    `_residual_squares`.
    """
    eta_sq = _patch_sums(mesh, mesh.diameters[:, None] ** 2 * vol_hat)
    hesq = edge_hat * mesh.edge_lengths[:, None]
    np.add.at(eta_sq, mesh.edges.ravel(), hesq.ravel())
    return np.sqrt(eta_sq)


def oscillation(space: FeSpace, f) -> np.ndarray:
    """Elementwise data oscillation h_T |f - (projection of f)|_T.

    The projection is onto polynomials of degree k - 1 for a degree-k
    space, by one `reference_projector` P for all elements.  Each element's
    values are shifted by their first one, a constant that cancels in the
    remainder, so that constant data give exactly zero (P's rows sum to one
    only to round-off).  The remainder is integrated pointwise, so other
    resolved data give round-off rather than a sqrt(eps) floor.
    """
    mesh = space.mesh
    rule = space.rule_fine
    P = reference_projector(rule, space.degree - 1)
    out = np.empty(mesh.n_triangles)
    for batch in element_batches(mesh, rule.points):
        els = batch.els
        fX = load_values(f, batch.X)
        c = fX - fX[:, :1]
        rem = c - c @ P.T
        sq = ((rem * rem) @ rule.weights) * mesh.areas[els]
        out[els] = mesh.diameters[els] * np.sqrt(sq)
    return out


def patch_oscillation(space: FeSpace, f) -> np.ndarray:
    """Patchwise oscillation: root sum of squares over each vertex patch."""
    osc = oscillation(space, f)
    return np.sqrt(_patch_sums(space.mesh, osc[:, None] ** 2))


def _patch_sums(mesh: Mesh, sq: np.ndarray) -> np.ndarray:
    """Sum squared element values over each vertex patch.

    sq is (nt, 3), one value per local vertex, or (nt, 1) for a value that
    every vertex of the element takes.
    """
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, mesh.triangles.ravel(),
              np.broadcast_to(sq, mesh.triangles.shape).ravel())
    return out


@dataclass(frozen=True)
class EstimatorReport:
    """All indicator families for one discrete solution.

    Per-element arrays are indexed by triangle, per-vertex arrays by vertex.
    Elementwise totals are root sums of squares; patchwise totals use the
    element-major double sum, weighting each vertex value by the number of
    incident triangles, with a plain root-sum variant alongside.
    """

    mesh: Mesh = dc_field(repr=False)
    eta_delta: np.ndarray = dc_field(repr=False)
    eta_star: np.ndarray = dc_field(repr=False)
    eta_res: np.ndarray = dc_field(repr=False)
    eta_res_star: np.ndarray = dc_field(repr=False)
    osc: np.ndarray = dc_field(repr=False)
    osc_star: np.ndarray = dc_field(repr=False)
    flux: EquilibratedFlux | None = dc_field(repr=False, default=None)

    @property
    def eta_delta_total(self) -> float:
        return float(np.sqrt((self.eta_delta ** 2).sum()))

    @property
    def eta_star_total(self) -> float:
        """Double-count total: each patch norm once per incident triangle."""
        m = self.mesh.valences
        return float(np.sqrt((m * self.eta_star ** 2).sum()))

    @property
    def eta_star_single(self) -> float:
        return float(np.sqrt((self.eta_star ** 2).sum()))

    @property
    def eta_res_total(self) -> float:
        return float(np.sqrt((self.eta_res ** 2).sum()))

    @property
    def eta_res_star_total(self) -> float:
        m = self.mesh.valences
        return float(np.sqrt((m * self.eta_res_star ** 2).sum()))

    @property
    def osc_total(self) -> float:
        return float(np.sqrt((self.osc ** 2).sum()))

    @property
    def osc_star_total(self) -> float:
        m = self.mesh.valences
        return float(np.sqrt((m * self.osc_star ** 2).sum()))

    def restricted(self, elements: np.ndarray) -> float:
        """eta_delta total over a subset of elements."""
        return float(np.sqrt((self.eta_delta[elements] ** 2).sum()))

    def restricted_osc(self, elements: np.ndarray) -> float:
        return float(np.sqrt((self.osc[elements] ** 2).sum()))

    def restricted_osc_star(self, elements: np.ndarray) -> float:
        """Element-major patch-oscillation total over an element subset."""
        verts = self.mesh.triangles[np.asarray(elements, dtype=np.int64)]
        return float(np.sqrt((self.osc_star[verts] ** 2).sum()))

    def indicator(self, which: str) -> np.ndarray:
        """Marking indicators for a named estimator family.

        delta and residual mark elements; star families mark elements by
        accumulating the vertex values onto incident triangles.
        """
        if which == "delta":
            return self.eta_delta
        if which == "residual":
            return self.eta_res
        if which in ("star", "residual_star"):
            vals = self.eta_star if which == "star" else self.eta_res_star
            per_el = (vals[self.mesh.triangles] ** 2).sum(axis=1)
            return np.sqrt(per_el)
        raise ValueError(f"unknown estimator family {which!r}")


def estimate(u_h: ScalarField, f, flux: EquilibratedFlux | None = None,
             cache: ElementBlocks | None = None) -> EstimatorReport:
    """Compute every indicator family for a discrete solution.

    The residual families reuse the normal jumps of the flux, so a flux
    passed in must be that of u_h itself.  Without one, the flux is
    equilibrated here with the element blocks of cache (see
    `equilibrate`).
    """
    if flux is None:
        flux = equilibrate(u_h, f, cache=cache)
    elif flux.u_h is not u_h:
        raise ValueError("flux was equilibrated for another field than u_h")
    mesh = u_h.space.mesh
    vol, vol_hat, edge, edge_hat = _residual_squares(u_h, f, flux.jumps)
    osc = oscillation(u_h.space, f)
    return EstimatorReport(
        mesh=mesh,
        eta_delta=flux.eta_delta,
        eta_star=flux.eta_star,
        eta_res=residual_indicators(mesh, vol, edge),
        eta_res_star=patch_residual_indicators(mesh, vol_hat, edge_hat),
        osc=osc,
        osc_star=np.sqrt(_patch_sums(mesh, osc[:, None] ** 2)),
        flux=flux,
    )
