"""Conforming triangulations with newest-vertex bisection.

A triangle is stored as an ordered vertex triple (v0, v1, v2); its refinement
edge is always the edge (v0, v1) opposite the newest vertex v2.  Bisection at
the midpoint m of (v0, v1) produces the children

    (v2, v0, m)  and  (v1, v2, m)

which keeps counterclockwise orientation and places the new vertex last, so
the children's refinement edges are the parent's two remaining edges.  Initial
meshes are labelled so the longest edge of every triangle is its refinement
edge (ties broken by the smallest opposite-vertex id).

A mesh owns its arrays, each a locked copy of its input, and refuses
attribute assignment.  It is built only from finite points, each in some
triangle, and counterclockwise triangles; `bisect` returns a new mesh.
Internally it works in rounds that each split a compatible set of marked
edges, so every parent link spans at most one generation.  The lineage chain
(via `source`) holds one kind of node, a `Round` link with the parent and
generation of each triangle, and a link for every round: the input mesh
enters through its own `link`, each round of `bisect` but the last adds one,
and the result's `source` is the last of them.  The chain holds no mesh but
the root, so a level mesh and its tables are freed once the caller drops it.
The chain is what `ancestor_map`, `refined_set` and the depth diagnostics
walk; `level` counts rounds from the root.

Connectivity lives in arrays, not in per-vertex or per-triangle objects:
`edges`, `edge_of_triangle`, `edge_triangles` and `edge_local` for edges,
and the CSR table `_vertex_triangles` for the patch of each vertex, its
incident triangles in triangle-id order with the vertex's slot in each.
`jacobians` and `edge_flips` are the one source of each element's affine
map and of its edges' orientation against the global vertex ids.

Mesh files use a small ASCII format: a header line `nv nt`, then nv vertex
lines `x y boundary_flag`, then nt triangle lines `v0 v1 v2 generation` with
the refinement-edge convention above.  Legacy-format VTK export is provided
for visualisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class MeshError(ValueError):
    """Invalid mesh data or an invalid mesh operation."""


class LineageError(MeshError):
    """Raised when two meshes are not related by a refinement chain."""


@dataclass
class ConformityReport:
    ok: bool
    violations: list[str]
    min_angle: float
    area: float


def _lock(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _owned(a, dtype) -> np.ndarray:
    """A locked, C-contiguous copy of a."""
    return _lock(np.array(a, dtype=dtype, order="C"))


def _check_arrays(points: np.ndarray, triangles: np.ndarray) -> None:
    """Shapes, finite points, ids in range; failures name the offender."""
    if points.ndim != 2 or points.shape[1] != 2:
        raise MeshError("points must be an (nv, 2) array")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshError("triangles must be an (nt, 3) array")
    if triangles.shape[0] == 0:
        raise MeshError("mesh has no triangles")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise MeshError(f"vertex {np.argmin(finite)} has a non-finite "
                        "coordinate")
    bad = np.argwhere((triangles < 0) | (triangles >= len(points)))
    if bad.size:
        t, i = bad[0]
        raise MeshError(f"triangle {t} has vertex index {triangles[t, i]} "
                        f"out of range [0, {len(points)})")


class Mesh:
    """Immutable conforming triangulation (see module docstring)."""

    def __init__(
        self,
        points: np.ndarray,
        triangles: np.ndarray,
        generations: np.ndarray | None = None,
        parents: np.ndarray | None = None,
        source: "Round | Mesh | None" = None,
    ):
        points = _owned(points, np.float64)
        triangles = _owned(triangles, np.int64)
        _check_arrays(points, triangles)
        nt = triangles.shape[0]
        vars(self).update(
            points=points, triangles=triangles,
            generations=_owned(np.zeros(nt) if generations is None
                               else generations, np.int64),
            parents=_owned(np.full(nt, -1) if parents is None else parents,
                           np.int64),
            source=source.link if isinstance(source, Mesh) else source)
        if not self.valences.all():
            raise MeshError(f"vertex {np.argmin(self.valences)} is in no "
                            "triangle")
        if self.generations.shape != (nt,) or self.parents.shape != (nt,):
            raise MeshError(f"generations and parents must have shape ({nt},)")
        src = self.source
        if src is not None and (self.parents.min() < 0
                                or self.parents.max() >= src.n_triangles):
            raise MeshError(f"parent id out of range [0, {src.n_triangles})")
        if not (self.signed_areas > 0).all():
            raise MeshError(f"triangle {np.argmin(self.signed_areas > 0)} is "
                            "not counterclockwise (signed area <= 0)")

    def __setattr__(self, name, value):
        raise AttributeError(f"Mesh is immutable: cannot assign {name!r}")

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
    def jacobians(self) -> np.ndarray:
        """(nt, 2, 2) affine-map Jacobians, columns p1 - p0 and p2 - p0."""
        p, t = self.points, self.triangles
        p0 = p[t[:, 0]]
        return _lock(np.stack([p[t[:, 1]] - p0, p[t[:, 2]] - p0], axis=2))

    @cached_property
    def edge_flips(self) -> np.ndarray:
        """(nt, 3): whether local edge le, which runs from local vertex le+1
        to le+2, starts at the higher global vertex id."""
        t = self.triangles
        return _lock(t[:, [1, 2, 0]] > t[:, [2, 0, 1]])

    @cached_property
    def signed_areas(self) -> np.ndarray:
        J = self.jacobians
        return _lock(0.5 * (J[:, 0, 0] * J[:, 1, 1] - J[:, 1, 0] * J[:, 0, 1]))

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
    def valences(self) -> np.ndarray:
        return _lock(np.bincount(self.triangles.ravel(), minlength=self.n_vertices))

    @property
    def level(self) -> int:
        return 0 if self.source is None else self.source.level + 1

    @cached_property
    def link(self) -> "Round":
        """The `Round` that stands for this mesh in the lineage chain,
        made on first access, as a rule when `bisect` first refines the
        mesh: the chain keeps this link, not the mesh."""
        return Round(self.parents, self.generations, self.source, self.root())

    def root(self) -> "Mesh":
        return self if self.source is None else self.source.root

    # -- construction ---------------------------------------------------

    @classmethod
    def from_arrays(cls, points: np.ndarray, triangles: np.ndarray) -> "Mesh":
        """Build a root mesh; orients triangles counterclockwise and rotates
        each triple so the longest edge is the refinement edge, ties broken
        by the smallest opposite-vertex id."""
        points = np.asarray(points, dtype=np.float64)
        tris = np.asarray(triangles, dtype=np.int64)
        _check_arrays(points, tris)
        if (tris == tris[:, [1, 2, 0]]).any():
            raise MeshError("triangle with repeated vertex")
        p = points[tris]
        sgn = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) \
            - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
        if (sgn == 0).any():
            raise MeshError("degenerate (zero-area) triangle")
        tris = np.where((sgn < 0)[:, None], tris[:, [1, 0, 2]], tris)
        p = points[tris]
        # squared length of the edge opposite each local vertex
        l2 = ((p[:, [2, 0, 1]] - p[:, [1, 2, 0]]) ** 2).sum(axis=2)
        near = l2 >= l2.max(axis=1, keepdims=True) * (1.0 - 1e-12)
        opp = np.where(near, tris, np.iinfo(np.int64).max)
        r = np.argmin(opp, axis=1)
        return cls(points, np.take_along_axis(
            tris, (r[:, None] + [1, 2, 0]) % 3, axis=1))

    # -- file formats ---------------------------------------------------

    def save_tri(self, path) -> None:
        bnd = self.boundary_vertex.astype(np.int64).tolist()
        with open(path, "w") as fh:
            fh.write(f"{self.n_vertices} {self.n_triangles}\n")
            fh.writelines(f"{x!r} {y!r} {b}\n"
                          for (x, y), b in zip(self.points.tolist(), bnd))
            fh.writelines(f"{a} {b} {c} {g}\n" for (a, b, c), g in zip(
                self.triangles.tolist(), self.generations.tolist()))

    @classmethod
    def load_tri(cls, path) -> "Mesh":
        with open(path) as fh:
            tokens = fh.read().split()
        if len(tokens) < 2:
            raise MeshError(f"{path}: truncated mesh file")
        nv, nt = _parse(path, tokens[:2], np.int64, 2, "the header")[0]
        if min(nv, nt) < 0:
            raise MeshError(f"{path}: the header has a negative count")
        need = 2 + 3 * nv + 4 * nt
        if len(tokens) != need:
            raise MeshError(f"{path}: expected {need} tokens, found {len(tokens)}")
        pts = _parse(path, tokens[2:2 + 3 * nv], np.float64, 3, "vertex {}")
        rest = _parse(path, tokens[2 + 3 * nv:], np.int64, 4, "triangle {}")
        # boundary flags are re-derived from connectivity; the triple ordering
        # in the file already encodes the refinement edges, so no relabelling.
        return cls(pts[:, :2], rest[:, :3], generations=rest[:, 3])

    def save_vtk(self, path) -> None:
        """Legacy ASCII VTK unstructured grid with generations as cell data."""
        nv, nt = self.n_vertices, self.n_triangles
        # each line is written as it is formatted: a list of them all
        # would set the peak memory of a run that exports its final mesh
        with open(path, "w") as fh:
            fh.write("# vtk DataFile Version 3.0\ntriangulation\nASCII\n"
                     f"DATASET UNSTRUCTURED_GRID\nPOINTS {nv} double\n")
            fh.writelines(f"{x!r} {y!r} 0.0\n"
                          for x, y in self.points.tolist())
            fh.write(f"CELLS {nt} {4 * nt}\n")
            fh.writelines(f"3 {a} {b} {c}\n"
                          for a, b, c in self.triangles.tolist())
            fh.write(f"CELL_TYPES {nt}\n" + "5\n" * nt
                     + f"CELL_DATA {nt}\nSCALARS generation int 1\n"
                     "LOOKUP_TABLE default\n")
            fh.writelines(f"{g}\n" for g in self.generations.tolist())


def _parse(path, tokens, dtype, width: int, row: str) -> np.ndarray:
    """Tokens of a mesh file as rows of width numbers; a token that does
    not parse raises a MeshError naming the file and row.format(index)."""
    try:
        return np.array(tokens, dtype=dtype).reshape(-1, width)
    except (ValueError, OverflowError):
        for i, tok in enumerate(tokens):
            try:
                dtype(tok)
            except (ValueError, OverflowError):
                raise MeshError(f"{path}: {row.format(i // width)} has a "
                                f"malformed number {tok!r}") from None
        raise


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
    """A link of the lineage chain: one closure round of `bisect`, or the
    mesh a `bisect` call starts from (`Mesh.link`).

    It holds only what lineage walks read: each triangle's parent in
    `source` and its generation, both int32, its level, and the root mesh
    of the chain.  Its points and triangles are not kept.
    """

    def __init__(self, parents: np.ndarray, generations: np.ndarray,
                 source: "Round | None", root: Mesh):
        self.parents = _lock(parents.astype(np.int32))
        self.generations = _lock(generations.astype(np.int32))
        self.source = source
        self.level = 0 if source is None else source.level + 1
        self.root = root

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
    marked = np.asarray(list(marked))
    if marked.size == 0:
        raise MeshError("empty marked set")
    if marked.dtype.kind not in "iu":
        raise MeshError(f"marked triangles must be integer ids, not "
                        f"{marked.dtype} values")
    marked = np.unique(marked.astype(np.int64))
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
    chain, parents = mesh.link, None
    for _ in range(b):
        marks = np.zeros(len(ends), dtype=bool)
        marks[eot[desc, 2]] = True
        while marks.any():
            if parents is not None:
                chain = Round(parents, gens, chain, chain.root)
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
    return Mesh(points, tris, generations=gens, parents=parents, source=chain)


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
    ids, m = np.arange(fine.n_triangles, dtype=np.int64), fine
    while m is not coarse and m is not coarse.link:
        if m.source is None:
            raise LineageError("meshes are not related by refinement")
        ids, m = m.parents[ids], m.source
    return ids.astype(np.int64, copy=False)


def refined_set(coarse: Mesh, fine: Mesh, j: int) -> np.ndarray:
    """Sorted ids of the triangles of `coarse` whose every descendant in
    `fine` gained at least j generations."""
    j = int(j)
    if j < 1:
        raise MeshError(f"refined_set needs j >= 1, got {j}")
    anc = ancestor_map(coarse, fine)
    gains = fine.generations - coarse.generations[anc]
    min_gain = np.full(coarse.n_triangles, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(min_gain, anc, gains)
    return np.nonzero(min_gain >= j)[0]


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

    # the constructor has checked that each parent id lies in the source
    if mesh.source is not None:
        dg = mesh.generations - mesh.source.generations[mesh.parents]
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
