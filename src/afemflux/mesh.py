"""Conforming triangulations with newest-vertex bisection.

A triangle is stored as an ordered vertex triple (v0, v1, v2); its refinement
edge is always the edge (v0, v1) opposite the newest vertex v2.  Bisection at
the midpoint m of (v0, v1) produces the children

    (v2, v0, m)  and  (v1, v2, m)

which keeps counterclockwise orientation and places the new vertex last, so
the children's refinement edges are the parent's two remaining edges.  Initial
meshes are labelled so the longest edge of every triangle is its refinement
edge (ties broken by the smallest opposite-vertex id).

Meshes are immutable once built.  `bisect` returns a new mesh; internally it
works in rounds that each split a compatible set of marked edges, so every
parent link spans at most one generation.  The lineage chain (via `source`)
holds a lightweight `Round` node for every round but the last of each
`bisect` call: the parent and generation of each of that round's triangles.
Only meshes carry points and triangles.  The chain is what `ancestor_map`,
`refined_set` and the depth diagnostics walk; `level` counts rounds from the
root.

Mesh files use a small ASCII format: a header line `nv nt`, then nv vertex
lines `x y boundary_flag`, then nt triangle lines `v0 v1 v2 generation` with
the refinement-edge convention above.  Legacy-format VTK export is provided
for visualisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class MeshError(ValueError):
    """Invalid mesh data or an invalid mesh operation."""


class LineageError(MeshError):
    """Raised when two meshes are not related by a refinement chain."""


@dataclass(frozen=True)
class Vertex:
    id: int
    x: float
    y: float
    on_boundary: bool


@dataclass(frozen=True)
class Triangle:
    id: int
    vertices: tuple[int, int, int]
    generation: int
    parent: int | None
    area: float
    diameter: float
    mesh: "Mesh" = field(repr=False)

    @property
    def refinement_edge(self) -> tuple[int, int]:
        return (self.vertices[0], self.vertices[1])


@dataclass(frozen=True)
class Patch:
    """Star of triangles around a vertex.

    interior_edges are the mesh-interior edges incident to the vertex (the
    "spokes", each shared by two patch triangles); boundary_edges collects the
    rim plus any incident domain-boundary edges.
    """

    vertex: int
    elements: np.ndarray
    interior_edges: np.ndarray
    boundary_edges: np.ndarray


@dataclass(frozen=True)
class RefinedSet:
    """Coarse-mesh triangles all of whose descendants gained >= j generations."""

    j: int
    elements: np.ndarray
    n_coarse: int


@dataclass
class ConformityReport:
    ok: bool
    violations: list[str]
    min_angle: float
    area: float


def _lock(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Mesh:
    """Immutable conforming triangulation (see module docstring)."""

    def __init__(
        self,
        points: np.ndarray,
        triangles: np.ndarray,
        generations: np.ndarray | None = None,
        parents: np.ndarray | None = None,
        source: "Mesh | None" = None,
        level: int = 0,
    ):
        self.points = _lock(np.ascontiguousarray(points, dtype=np.float64))
        self.triangles = _lock(np.ascontiguousarray(triangles, dtype=np.int64))
        nt = self.triangles.shape[0]
        if generations is None:
            generations = np.zeros(nt, dtype=np.int64)
        self.generations = _lock(np.ascontiguousarray(generations, dtype=np.int64))
        if parents is None:
            parents = np.full(nt, -1, dtype=np.int64)
        self.parents = _lock(np.ascontiguousarray(parents, dtype=np.int64))
        self.source = source
        self.level = level
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise MeshError("points must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if nt == 0:
            raise MeshError("mesh has no triangles")
        if self.triangles.min() < 0 or self.triangles.max() >= self.n_vertices:
            raise MeshError("triangle vertex index out of range")

    # -- basic sizes ----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.points.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    # -- derived connectivity (computed lazily, meshes are immutable) ---

    @cached_property
    def edges(self) -> np.ndarray:
        """(ne, 2) unique vertex pairs, each row sorted, rows lexsorted."""
        return self._edge_data[0]

    @cached_property
    def edge_of_triangle(self) -> np.ndarray:
        """(nt, 3); entry [t, i] is the edge opposite local vertex i."""
        return self._edge_data[1]

    @cached_property
    def _edge_data(self):
        # scalar edge keys low*nv+high keep the lexicographic row order of
        # the sorted vertex pairs while avoiding structured sorts
        t = self.triangles
        nv = self.n_vertices
        ends = t[:, [1, 2, 0]], t[:, [2, 0, 1]]
        keys = (np.minimum(*ends) * nv + np.maximum(*ends)).ravel()
        uk = np.unique(keys)
        inverse = np.searchsorted(uk, keys)
        edges = np.column_stack([uk // nv, uk % nv])
        return _lock(edges), _lock(inverse.reshape(-1, 3))

    @cached_property
    def _edge_incidence(self):
        """edge_triangles (ne, 2), edge_local (ne, 2), edge_degree (ne,).

        Incident triangles ordered by triangle id; -1 where absent.  For
        interior edges the two sides are (T+, T-) in triangle-id order, the
        convention used for jump terms.
        """
        ne = self.edges.shape[0]
        eids = self.edge_of_triangle.ravel()
        # flat index i belongs to triangle i // 3, already ascending, so a
        # stable sort on the edge id alone orders ties by triangle id
        order = np.argsort(eids, kind="stable")
        eids = eids[order]
        tids, lids = order // 3, order % 3
        degree = np.bincount(eids, minlength=ne)
        start = np.concatenate([[0], np.cumsum(degree)[:-1]])
        etri = np.full((ne, 2), -1, dtype=np.int64)
        eloc = np.full((ne, 2), -1, dtype=np.int64)
        first = start[degree >= 1]
        etri[degree >= 1, 0] = tids[first]
        eloc[degree >= 1, 0] = lids[first]
        second = (start + 1)[degree >= 2]
        etri[degree >= 2, 1] = tids[second]
        eloc[degree >= 2, 1] = lids[second]
        return _lock(etri), _lock(eloc), _lock(degree)

    @property
    def edge_triangles(self) -> np.ndarray:
        return self._edge_incidence[0]

    @property
    def edge_local(self) -> np.ndarray:
        return self._edge_incidence[1]

    @cached_property
    def boundary_edge(self) -> np.ndarray:
        return _lock(self._edge_incidence[2] == 1)

    @cached_property
    def boundary_vertex(self) -> np.ndarray:
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[self.edges[self.boundary_edge].ravel()] = True
        return _lock(mask)

    @cached_property
    def signed_areas(self) -> np.ndarray:
        p = self.points[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return _lock(0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]))

    @cached_property
    def areas(self) -> np.ndarray:
        return _lock(np.abs(self.signed_areas))

    @cached_property
    def centroids(self) -> np.ndarray:
        return _lock(self.points[self.triangles].mean(axis=1))

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        d = self.points[self.edges[:, 1]] - self.points[self.edges[:, 0]]
        return _lock(np.hypot(d[:, 0], d[:, 1]))

    @cached_property
    def diameters(self) -> np.ndarray:
        return _lock(self.edge_lengths[self.edge_of_triangle].max(axis=1))

    @cached_property
    def _vertex_triangles(self):
        """CSR vertex -> incident triangles (sorted by triangle id)."""
        flat = self.triangles.ravel()
        order = np.argsort(flat, kind="stable")
        ind = order // 3
        local = order % 3
        ptr = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=self.n_vertices), out=ptr[1:])
        return _lock(ptr), _lock(ind), _lock(local)

    @cached_property
    def _vertex_edges(self):
        """CSR vertex -> incident edges (sorted by edge id)."""
        flat = self.edges.ravel()
        order = np.argsort(flat, kind="stable")
        ind = order // 2
        ptr = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=self.n_vertices), out=ptr[1:])
        return _lock(ptr), _lock(ind)

    @cached_property
    def valences(self) -> np.ndarray:
        return _lock(np.bincount(self.triangles.ravel(), minlength=self.n_vertices))

    # -- views ----------------------------------------------------------

    def vertex(self, i: int) -> Vertex:
        i = int(i)
        if not 0 <= i < self.n_vertices:
            raise MeshError(f"vertex id {i} out of range")
        x, y = self.points[i]
        return Vertex(i, float(x), float(y), bool(self.boundary_vertex[i]))

    def triangle(self, t: int) -> Triangle:
        t = int(t)
        if not 0 <= t < self.n_triangles:
            raise MeshError(f"triangle id {t} out of range")
        parent = int(self.parents[t])
        return Triangle(
            id=t,
            vertices=tuple(int(v) for v in self.triangles[t]),
            generation=int(self.generations[t]),
            parent=None if parent < 0 else parent,
            area=float(self.areas[t]),
            diameter=float(self.diameters[t]),
            mesh=self,
        )

    def patch(self, nu: int) -> Patch:
        nu = int(nu)
        if not 0 <= nu < self.n_vertices:
            raise MeshError(f"vertex id {nu} out of range")
        ptr, ind, local = self._vertex_triangles
        elems = ind[ptr[nu]:ptr[nu + 1]]
        if elems.size == 0:
            raise MeshError(f"vertex {nu} has no incident triangles")
        lv = local[ptr[nu]:ptr[nu + 1]]
        eptr, eind = self._vertex_edges
        spokes = eind[eptr[nu]:eptr[nu + 1]]
        interior = spokes[~self.boundary_edge[spokes]]
        rim = self.edge_of_triangle[elems, lv]
        bnd = np.unique(np.concatenate([rim, spokes[self.boundary_edge[spokes]]]))
        return Patch(nu, elems.copy(), interior.copy(), bnd)

    def root(self) -> "Mesh":
        m = self
        while m.source is not None:
            m = m.source
        return m

    # -- construction ---------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        points: np.ndarray,
        triangles: np.ndarray,
        generations: np.ndarray | None = None,
        relabel: bool = True,
    ) -> "Mesh":
        """Build a root mesh; orients triangles counterclockwise and (by
        default) rotates each triple so the longest edge is the refinement
        edge, ties broken by the smallest opposite-vertex id."""
        points = np.array(points, dtype=np.float64)
        tris = np.array(triangles, dtype=np.int64)
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if (tris[:, 0] == tris[:, 1]).any() or (tris[:, 1] == tris[:, 2]).any() \
                or (tris[:, 0] == tris[:, 2]).any():
            raise MeshError("triangle with repeated vertex")
        p = points[tris]
        sgn = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) \
            - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
        if (sgn == 0).any():
            raise MeshError("degenerate (zero-area) triangle")
        flip = sgn < 0
        tris[flip] = tris[flip][:, [1, 0, 2]]
        if relabel:
            p = points[tris]
            # squared length of the edge opposite each local vertex
            l2 = np.stack([
                ((p[:, 2] - p[:, 1]) ** 2).sum(axis=1),
                ((p[:, 0] - p[:, 2]) ** 2).sum(axis=1),
                ((p[:, 1] - p[:, 0]) ** 2).sum(axis=1),
            ], axis=1)
            near = l2 >= l2.max(axis=1, keepdims=True) * (1.0 - 1e-12)
            opp = np.where(near, tris, np.iinfo(np.int64).max)
            r = np.argmin(opp, axis=1)
            rolled = np.stack([
                tris[np.arange(len(tris)), (r + 1) % 3],
                tris[np.arange(len(tris)), (r + 2) % 3],
                tris[np.arange(len(tris)), r],
            ], axis=1)
            tris = rolled
        return cls(points, tris, generations=generations)

    # -- file formats ---------------------------------------------------

    def save_tri(self, path) -> None:
        lines = [f"{self.n_vertices} {self.n_triangles}"]
        bnd = self.boundary_vertex
        for i in range(self.n_vertices):
            x, y = self.points[i]
            lines.append(f"{float(x)!r} {float(y)!r} {1 if bnd[i] else 0}")
        for t in range(self.n_triangles):
            v = self.triangles[t]
            lines.append(f"{v[0]} {v[1]} {v[2]} {self.generations[t]}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load_tri(cls, path) -> "Mesh":
        with open(path) as fh:
            tokens = fh.read().split()
        if len(tokens) < 2:
            raise MeshError(f"{path}: truncated mesh file")
        nv, nt = int(tokens[0]), int(tokens[1])
        need = 2 + 3 * nv + 4 * nt
        if len(tokens) != need:
            raise MeshError(f"{path}: expected {need} tokens, found {len(tokens)}")
        vals = tokens[2:2 + 3 * nv]
        pts = np.array(vals, dtype=np.float64).reshape(nv, 3)[:, :2]
        rest = np.array(tokens[2 + 3 * nv:], dtype=np.int64).reshape(nt, 4)
        # boundary flags are re-derived from connectivity; the triple ordering
        # in the file already encodes the refinement edges, so no relabelling.
        return cls(pts, rest[:, :3], generations=rest[:, 3])

    def save_vtk(self, path) -> None:
        """Legacy ASCII VTK unstructured grid with generations as cell data."""
        out = [
            "# vtk DataFile Version 3.0",
            "triangulation",
            "ASCII",
            "DATASET UNSTRUCTURED_GRID",
            f"POINTS {self.n_vertices} double",
        ]
        for i in range(self.n_vertices):
            x, y = self.points[i]
            out.append(f"{float(x)!r} {float(y)!r} 0.0")
        nt = self.n_triangles
        out.append(f"CELLS {nt} {4 * nt}")
        for t in range(nt):
            v = self.triangles[t]
            out.append(f"3 {v[0]} {v[1]} {v[2]}")
        out.append(f"CELL_TYPES {nt}")
        out.extend(["5"] * nt)
        out.append(f"CELL_DATA {nt}")
        out.append("SCALARS generation int 1")
        out.append("LOOKUP_TABLE default")
        out.extend(str(int(g)) for g in self.generations)
        with open(path, "w") as fh:
            fh.write("\n".join(out) + "\n")


# -- reference domains --------------------------------------------------


def _crisscross(squares: Sequence[tuple[float, float]], h: float = 1.0) -> Mesh:
    """Union of axis-aligned squares, each cut into 4 triangles by its centre."""
    coords: dict[tuple[float, float], int] = {}

    def vid(x: float, y: float) -> int:
        key = (x, y)
        if key not in coords:
            coords[key] = len(coords)
        return coords[key]

    tris = []
    for (x0, y0) in squares:
        corner = [vid(x0, y0), vid(x0 + h, y0), vid(x0 + h, y0 + h), vid(x0, y0 + h)]
        c = vid(x0 + h / 2, y0 + h / 2)
        for i in range(4):
            tris.append((corner[i], corner[(i + 1) % 4], c))
    pts = np.array(list(coords.keys()), dtype=np.float64)
    return Mesh.from_arrays(pts, np.array(tris, dtype=np.int64))


def unit_square_crisscross() -> Mesh:
    """(0,1)^2 split into 4 triangles around the centre point."""
    return _crisscross([(0.0, 0.0)])


def lshape() -> Mesh:
    """(-1,1)^2 minus the closed quadrant [0,1) x (-1,0); 12 triangles."""
    return _crisscross([(-1.0, -1.0), (-1.0, 0.0), (0.0, 0.0)])


# -- newest-vertex bisection -------------------------------------------


# Round nodes store triangle ids as int32.
_MAX_TRIANGLES = np.iinfo(np.int32).max


class Round:
    """One closure round of `bisect`, kept as a link of the lineage chain.

    It holds only what lineage walks read: each triangle's parent in
    `source` and its generation, both int32.  Its points and triangles are
    not kept.
    """

    def __init__(self, parents: np.ndarray, generations: np.ndarray, source):
        self.parents = _lock(parents.astype(np.int32))
        self.generations = _lock(generations.astype(np.int32))
        self.source = source
        self.level = source.level + 1

    @property
    def n_triangles(self) -> int:
        return self.parents.shape[0]


def bisect(mesh: Mesh, marked: Iterable[int], b: int = 1) -> Mesh:
    """Bisect every marked triangle b times (the full b-level subtree of each
    marked triangle is created), with recursive conforming closure.

    Each pass marks the refinement edges of the descendants of `marked` and
    splits them in rounds on working edge tables: a round closes the marks,
    then splits every marked edge that is the refinement edge of all its
    triangles, numbering new vertices in the lexicographic order of the
    split edges.  A split edge is left unused; its halves and the new
    interior edges are appended.
    """
    marked = np.unique(np.asarray(list(marked), dtype=np.int64))
    if marked.size == 0:
        raise MeshError("empty marked set")
    if marked.min() < 0 or marked.max() >= mesh.n_triangles:
        raise MeshError(f"marked triangle id out of range [0, {mesh.n_triangles})")
    b = int(b)
    if b < 1:
        raise MeshError(f"bisection count must be >= 1, got {b}")
    points, tris, gens = mesh.points, mesh.triangles, mesh.generations
    eot, ends = mesh.edge_of_triangle, mesh.edges
    degree = np.bincount(eot.ravel())
    desc = np.zeros(mesh.n_triangles, dtype=bool)
    desc[marked] = True
    chain, parents = mesh, None
    for _ in range(b):
        marks = np.zeros(len(ends), dtype=bool)
        marks[eot[desc, 2]] = True
        while marks.any():
            if parents is not None:
                chain = Round(parents, gens, chain)
            ref = eot[:, 2]
            # closure: a triangle with a marked edge has its refinement edge marked
            while (grow := marks[eot].any(axis=1) & ~marks[ref]).any():
                marks[ref[grow]] = True
            ne, nv = len(ends), len(points)
            split = marks & (np.bincount(ref, minlength=ne) == degree)
            if not split.any():
                raise MeshError(_deadlock(tris, eot, ends, marks))
            s = np.nonzero(split)[0]
            s = s[np.lexsort((ends[s, 1], ends[s, 0]))]
            vid = np.zeros(ne, dtype=np.int64)
            vid[s] = nv + np.arange(s.size)
            points = np.vstack([points,
                                0.5 * (points[ends[s, 0]] + points[ends[s, 1]])])
            marks[s] = False
            split_tri = split[ref]
            sid = np.nonzero(split_tri)[0]
            if len(tris) + sid.size > _MAX_TRIANGLES:
                raise MeshError(f"bisection would pass {_MAX_TRIANGLES} triangles")
            # a split triangle (v0, v1, v2) becomes (v2, v0, m), (v1, v2, m)
            # in its own place, and the triangles after it move down
            parents = np.repeat(np.arange(len(tris)), 1 + split_tri)
            first = sid + np.arange(sid.size)
            v0, v1, v2 = tris[sid].T
            m = vid[ref[sid]]
            # split edge k leaves halves (lo, m) and (hi, m) as edges
            # ne + 2k and ne + 2k + 1; split triangle j adds (v2, m) as
            # edge ne + 2 * len(s) + j
            half = ne + 2 * (m - nv)
            inner = ne + 2 * s.size + np.arange(sid.size)
            e0, e1 = eot[sid, 0], eot[sid, 1]
            tris, eot, desc = tris[parents], eot[parents], desc[parents]
            tris[first] = np.column_stack([v2, v0, m])
            tris[first + 1] = np.column_stack([v1, v2, m])
            eot[first] = np.column_stack([half + (v0 > v1), inner, e1])
            eot[first + 1] = np.column_stack([inner, half + (v1 > v0), e0])
            gens = gens[parents] + split_tri[parents]
            halves = np.column_stack([ends[s].ravel(), np.repeat(vid[s], 2)])
            ends = np.concatenate([ends, halves, np.column_stack([v2, m])])
            degree = np.concatenate([degree, np.repeat(degree[s], 2),
                                     np.full(sid.size, 2)])
            marks = np.concatenate([marks, np.zeros(len(ends) - ne, dtype=bool)])
    return Mesh(points, tris, generations=gens, parents=parents, source=chain,
                level=chain.level + 1)


def _deadlock(tris, eot, ends, marks) -> str:
    """Name a marked edge that cannot be split and an incident triangle
    whose refinement edge is another edge."""
    e = np.nonzero(marks)[0][0]
    t = np.nonzero((eot == e).any(axis=1) & (eot[:, 2] != e))[0][0]
    tri = tuple(int(v) for v in tris[t])
    return (f"bisection deadlock: marked edge {tuple(int(v) for v in ends[e])} "
            f"is blocked by triangle {t} {tri}, whose refinement edge is {tri[:2]}")


def ancestor_map(coarse: Mesh, fine: Mesh) -> np.ndarray:
    """For each fine triangle, the id of its ancestor in `coarse`."""
    chain = []
    m = fine
    while m is not coarse:
        if m.source is None:
            raise LineageError("meshes are not related by refinement")
        chain.append(m)
        m = m.source
    ids = np.arange(fine.n_triangles, dtype=np.int64)
    for m in chain:
        ids = m.parents[ids]
    return ids.astype(np.int64, copy=False)


def refined_set(coarse: Mesh, fine: Mesh, j: int) -> RefinedSet:
    """Triangles of `coarse` whose every descendant in `fine` gained at least
    j generations."""
    j = int(j)
    if j < 1:
        raise MeshError(f"refined_set needs j >= 1, got {j}")
    anc = ancestor_map(coarse, fine)
    gains = fine.generations - coarse.generations[anc]
    min_gain = np.full(coarse.n_triangles, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(min_gain, anc, gains)
    elems = np.nonzero(min_gain >= j)[0]
    return RefinedSet(j=j, elements=elems, n_coarse=coarse.n_triangles)


def interior_node_depth(mesh: Mesh) -> int:
    """j* = ceil(3 n*/4) where n* is the largest vertex valence; bisecting a
    marked set j* times guarantees interior nodes in every refined triangle
    and on each of its edges."""
    n_star = int(mesh.valences.max())
    return -(-3 * n_star // 4)


# -- diagnostics --------------------------------------------------------


def _min_angle(mesh: Mesh) -> float:
    p = mesh.points[mesh.triangles]
    ang = []
    for i in range(3):
        a = p[:, (i + 1) % 3] - p[:, i]
        b = p[:, (i + 2) % 3] - p[:, i]
        na = np.hypot(a[:, 0], a[:, 1])
        nb = np.hypot(b[:, 0], b[:, 1])
        cosv = np.clip((a * b).sum(axis=1) / (na * nb), -1.0, 1.0)
        ang.append(np.arccos(cosv))
    return float(np.min(ang))


def conformity_check(mesh: Mesh) -> ConformityReport:
    """Validate conformity and bookkeeping; every violation names an offender."""
    bad: list[str] = []
    degree = mesh._edge_incidence[2]
    for e in np.nonzero(degree > 2)[0][:10]:
        bad.append(f"edge {e} {tuple(mesh.edges[e])} has {degree[e]} incident triangles")

    for t in np.nonzero(mesh.signed_areas <= 0)[0][:10]:
        bad.append(f"triangle {t} is not counterclockwise")

    # boundary must be a disjoint union of closed loops: every boundary vertex
    # has exactly one outgoing and one incoming directed boundary edge
    bedges = np.nonzero(mesh.boundary_edge)[0]
    area = float(mesh.areas.sum())
    if bedges.size:
        t = mesh.edge_triangles[bedges, 0]
        le = mesh.edge_local[bedges, 0]
        tri = mesh.triangles[t]
        rows = np.arange(bedges.size)
        s = tri[rows, (le + 1) % 3]
        e = tri[rows, (le + 2) % 3]
        out_deg = np.bincount(s, minlength=mesh.n_vertices)
        in_deg = np.bincount(e, minlength=mesh.n_vertices)
        for v in np.nonzero((out_deg != in_deg) | (out_deg > 1))[0][:10]:
            bad.append(
                f"boundary does not close at vertex {v} "
                f"(out {out_deg[v]}, in {in_deg[v]})"
            )
        # compare the enclosed (shoelace) area with the summed triangle areas
        ps, pe = mesh.points[s], mesh.points[e]
        loop_area = 0.5 * float(np.sum(ps[:, 0] * pe[:, 1] - pe[:, 0] * ps[:, 1]))
        if not np.isclose(area, loop_area, rtol=1e-12, atol=1e-14):
            bad.append(
                f"triangle areas sum to {area!r} but the boundary encloses {loop_area!r}"
            )
    else:
        bad.append("mesh has no boundary edges")

    # hanging nodes / duplicate points: geometric scan, affordable on the
    # hand-built meshes this diagnostic targets
    if mesh.n_vertices <= 2000:
        P = mesh.points
        a = P[mesh.edges[:, 0]][:, None, :]
        bvec = P[mesh.edges[:, 1]][:, None, :] - a
        rel = P[None, :, :] - a
        lb2 = np.maximum((bvec ** 2).sum(axis=2), 1e-300)
        tpar = (rel * bvec).sum(axis=2) / lb2
        perp = rel - tpar[:, :, None] * bvec
        d2 = (perp ** 2).sum(axis=2)
        inside = (d2 < 1e-24 * lb2) & (tpar > 1e-12) & (tpar < 1 - 1e-12)
        rows = np.arange(mesh.edges.shape[0])
        inside[rows, mesh.edges[:, 0]] = False
        inside[rows, mesh.edges[:, 1]] = False
        for e, v in zip(*np.nonzero(inside)):
            bad.append(f"vertex {v} hangs on edge {e} {tuple(mesh.edges[e])}")
            if len(bad) > 20:
                break

    if mesh.source is not None:
        src = mesh.source
        if mesh.parents.min() < 0 or mesh.parents.max() >= src.n_triangles:
            bad.append("parent id out of range")
        else:
            dg = mesh.generations - src.generations[mesh.parents]
            for t in np.nonzero((dg != 0) & (dg != 1))[0][:10]:
                bad.append(f"triangle {t} generation skips a level (gain {dg[t]})")

    min_angle = _min_angle(mesh)
    root = mesh.root()
    if root is not mesh:
        bound = _min_angle(root) / 2.0
        if min_angle < bound - 1e-9:
            bad.append(
                f"minimum angle {min_angle:.6f} fell below the bisection bound {bound:.6f}"
            )

    return ConformityReport(ok=not bad, violations=bad, min_angle=min_angle, area=area)
