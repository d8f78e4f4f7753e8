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
edges.  The lineage chain (via `source`) holds one kind of node, a `Link`
with the parent and generation of each triangle, and one link per `bisect`
call: the input mesh enters through its own `link`, which is the result's
`source`, and each triangle's parent is its ancestor in the input mesh.
Newest-vertex bisection makes of each triangle a binary tree whose leaves
tile it, a leaf that gained g generations covering 2^-g of it; the chain is
that forest seen from level to level, which is all the refinement the
convergence argument reads.  It holds no mesh but the root, so a level mesh
and its tables are freed once the caller drops it.  The chain is what
`ancestor_map`, `refined_set` and the depth diagnostics walk; between
consecutive levels `ancestor_map` is one gather.  `level` counts closure
rounds from the root, a number each mesh and link stores.

A round's work, apart from one pass over the triangles in mesh order, is in
proportion to the edges it splits: each working row carries its ancestor in
the input mesh, which an appended child copies from its parent.  The marks
are closed (a triangle with a marked edge has its refinement edge marked)
once, in the first round of each pass: a round unmarks only edges whose
triangles it all splits, and a child's one old edge is its refinement edge,
so no later round of the pass can open the closure.  The working tables
grow in place, in append order: a split triangle's first child takes its
row, the second is appended, and one index array keeps the mesh's own
order, in which the children take their parent's place.  A bisected mesh
receives its `edges` and `edge_of_triangle` from this bookkeeping, the
split edges dropped and the new ones merged into the sorted old ones; the
constructor checks such tables in O(nt + ne).  Other meshes, roots and
`load_tri` meshes among them, build them from their triangles.

Connectivity lives in arrays, not in per-vertex or per-triangle objects:
`edges`, `edge_of_triangle`, `edge_triangles` and `edge_local` for edges,
and the CSR table `_vertex_triangles` for the patch of each vertex, its
incident triangles in triangle-id order with the vertex's slot in each.
`jacobians` and `edge_flips` are the one source of each element's affine
map and of its edges' orientation against the global vertex ids, and
`shape_classes` of its exact shape class, the table on which the stiffness
assembly and the equilibration build what depends on shape alone.

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


def _check_edges(triangles: np.ndarray, edges: np.ndarray, eot: np.ndarray,
                 nv: int) -> None:
    """Handed-over edge tables are what `Mesh._edge_data` would build: rows
    sorted vertex pairs, lexsorted and distinct, each triangle's entries
    its own local edges, every edge in some triangle.  O(nt + ne);
    failures name the offender."""
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise MeshError("edges must be an (ne, 2) array")
    if eot.shape != triangles.shape:
        raise MeshError(f"edge_of_triangle must be an ({len(triangles)}, 3) "
                        "array")
    ne = len(edges)
    if ne == 0 or eot.min() < 0 or eot.max() >= ne:
        t, i = np.argwhere((eot < 0) | (eot >= ne))[0]
        raise MeshError(f"triangle {t} has edge id {eot[t, i]} out of range "
                        f"[0, {ne})")
    lo, hi = edges.T
    if lo.min() < 0 or hi.max() >= nv or (lo >= hi).any():
        e = np.argmax((lo < 0) | (hi >= nv) | (lo >= hi))
        raise MeshError(f"edge {e} {tuple(edges[e].tolist())} is not a "
                        f"sorted pair of vertex ids in [0, {nv})")
    # on such pairs, keys lo * nv + hi order the rows lexicographically
    key = lo * nv + hi
    if (key[1:] <= key[:-1]).any():
        e = np.argmax(key[1:] <= key[:-1]) + 1
        raise MeshError(f"edge {e} {tuple(edges[e].tolist())} is out of "
                        "lexicographic order")
    a, b = triangles[:, [1, 2, 0]], triangles[:, [2, 0, 1]]
    bad = key[eot] != np.minimum(a, b) * nv + np.maximum(a, b)
    if bad.any():
        t = np.argmax(bad.any(axis=1))
        raise MeshError(f"triangle {t} {tuple(triangles[t].tolist())} is not "
                        f"bounded by its edges {tuple(eot[t].tolist())}")
    used = np.zeros(ne, dtype=bool)
    used[eot] = True
    if not used.all():
        e = np.argmin(used)
        raise MeshError(f"edge {e} {tuple(edges[e].tolist())} is in no "
                        "triangle")


class Mesh:
    """Immutable conforming triangulation (see module docstring)."""

    def __init__(
        self,
        points: np.ndarray,
        triangles: np.ndarray,
        generations: np.ndarray | None = None,
        parents: np.ndarray | None = None,
        source: "Link | Mesh | None" = None,
        edges: np.ndarray | None = None,
        edge_of_triangle: np.ndarray | None = None,
        rounds: int = 1,
    ):
        """`rounds` is the number of closure rounds between `source` and
        this mesh, which `level` adds to the source's."""
        points = _owned(points, np.float64)
        triangles = _owned(triangles, np.int64)
        _check_arrays(points, triangles)
        nt = triangles.shape[0]
        source = source.link if isinstance(source, Mesh) else source
        vars(self).update(
            points=points, triangles=triangles,
            generations=_owned(np.zeros(nt) if generations is None
                               else generations, np.int64),
            parents=_owned(np.full(nt, -1) if parents is None else parents,
                           np.int64),
            source=source,
            level=0 if source is None else source.level + rounds)
        if not self.valences.all():
            raise MeshError(f"vertex {np.argmin(self.valences)} is in no "
                            "triangle")
        if self.generations.shape != (nt,) or self.parents.shape != (nt,):
            raise MeshError(f"generations and parents must have shape ({nt},)")
        src = self.source
        if src is not None and (self.parents.min() < 0
                                or self.parents.max() >= src.n_triangles):
            raise MeshError(f"parent id out of range [0, {src.n_triangles})")
        if not (self.areas > 0).all():
            raise MeshError(f"triangle {np.argmin(self.areas > 0)} is "
                            "not counterclockwise (signed area <= 0)")
        if (edges is None) != (edge_of_triangle is None):
            raise MeshError("edges and edge_of_triangle come together")
        if edges is not None:
            edges = _owned(edges, np.int64)
            eot = _owned(edge_of_triangle, np.int64)
            _check_edges(triangles, edges, eot, len(points))
            vars(self)["_edge_data"] = edges, eot

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

    def edge_sums(self, v: np.ndarray) -> np.ndarray:
        """Values v (nt, 3, ...) on the local edges of each element summed,
        per edge, over its two sides -> (ne, ...); zero on boundary edges."""
        et, el = self.edge_triangles, self.edge_local
        out = v[et[:, 0], el[:, 0]] + v[et[:, 1], el[:, 1]]
        out[self.boundary_edge] = 0.0
        return out

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

    def scaled_edges(self, els=slice(None)):
        """Edge vectors p1 - p0 and p2 - p0 of the elements els (all by
        default), (t, 2, 2): the rows of J^T for J in `jacobians`, scaled
        by the exact power of two 2^-ex that brings their largest component
        into [0.5, 1); and the exponents ex (t,)."""
        e = self.jacobians[els].transpose(0, 2, 1)
        _, ex = np.frexp(np.abs(e).max(axis=(1, 2)))
        # C order: what is built on e then rounds as on a fresh array
        return np.ldexp(e, -ex[:, None, None], order="C"), ex

    def shape_keys(self, els=slice(None)):
        """Exact shape keys (t, 5) int64 of the elements els (all by
        default), the bits of their `scaled_edges` and their three
        `edge_flips` bits, and the exponents ex (t,) of `scaled_edges`."""
        e, ex = self.scaled_edges(els)
        flips = self.edge_flips[els] @ np.array([1, 2, 4])
        return np.column_stack([e.reshape(-1, 4).view(np.int64), flips]), ex

    @cached_property
    def shape_classes(self):
        """Exact shape classes of the elements: first (nc,), the first
        element of each class, classes numbered in that order; cls (nt,),
        the class of each element; and ex (nt,), the exponent of each
        element's size (`scaled_edges`).

        Two elements share a class when their `shape_keys` agree: their
        edge vectors, in local vertex order and scaled by 2^-ex, agree bit
        for bit and the lower global id sits at the same end of each local
        edge.  A member's Jacobian is then exactly its class's first
        element's times 2^(ex_t - ex_first): whatever is computed from the
        Jacobian alone and scales with it is the same bit for bit up to
        that power of two.  The keys themselves are not kept: a caller
        that names classes forms them for the first elements alone.
        """
        key, ex = self.shape_keys()
        first, cls, _ = _row_classes(key)
        return _lock(first), _lock(cls), _lock(ex)

    @cached_property
    def areas(self) -> np.ndarray:
        """(nt,) the signed areas, half of det J (`jacobians`): positive, as
        the constructor checks, for every triangle is counterclockwise."""
        J = self.jacobians
        return _lock(0.5 * (J[:, 0, 0] * J[:, 1, 1] - J[:, 1, 0] * J[:, 0, 1]))

    @property
    def signed_areas(self) -> np.ndarray:
        """`areas` under the name the benchmark's tests read."""
        return self.areas

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
        np.cumsum(self.valences, out=ptr[1:])
        return _lock(ptr), _lock(ind), _lock(local)

    @cached_property
    def valences(self) -> np.ndarray:
        return _lock(np.bincount(self.triangles.ravel(), minlength=self.n_vertices))

    @cached_property
    def link(self) -> "Link":
        """The `Link` that stands for this mesh in the lineage chain,
        made on first access, as a rule when `bisect` first refines the
        mesh: the chain keeps this link, not the mesh."""
        return Link(self.parents, self.generations, self.source, self.root(),
                    self.level)

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
        bnd = _rows(self.boundary_vertex.astype(np.int64))
        with open(path, "w") as fh:
            fh.write(f"{self.n_vertices} {self.n_triangles}\n")
            fh.writelines(f"{x!r} {y!r} {b}\n"
                          for (x, y), b in zip(_rows(self.points), bnd))
            fh.writelines(f"{a} {b} {c} {g}\n" for (a, b, c), g in zip(
                _rows(self.triangles), _rows(self.generations)))

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
                          for x, y in _rows(self.points))
            fh.write(f"CELLS {nt} {4 * nt}\n")
            fh.writelines(f"3 {a} {b} {c}\n"
                          for a, b, c in _rows(self.triangles))
            fh.write(f"CELL_TYPES {nt}\n" + "5\n" * nt
                     + f"CELL_DATA {nt}\nSCALARS generation int 1\n"
                     "LOOKUP_TABLE default\n")
            fh.writelines(f"{g}\n" for g in _rows(self.generations))


# rows per list in the mesh writers
_FILE_ROWS = 4096


def _rows(a: np.ndarray):
    """The rows of a as Python values, listed `_FILE_ROWS` at a time: a
    list of every row of a large mesh would set the peak memory of a run
    that exports it."""
    for s0 in range(0, len(a), _FILE_ROWS):
        yield from a[s0:s0 + _FILE_ROWS].tolist()


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


# Link nodes store triangle ids as int32.
_MAX_TRIANGLES = np.iinfo(np.int32).max


class Link:
    """A node of the lineage chain: a mesh that a `bisect` call started
    from (`Mesh.link`), and the `source` of the call's result.

    It holds only what lineage walks read: each triangle's parent, its
    ancestor in the mesh that `source` stands for, and its generation,
    both int32; the mesh's level, the closure rounds from the root; and
    the root mesh of the chain.  Its points and triangles are not kept.
    """

    def __init__(self, parents: np.ndarray, generations: np.ndarray,
                 source: "Link | None", root: Mesh, level: int):
        self.parents = _lock(parents.astype(np.int32))
        self.generations = _lock(generations.astype(np.int32))
        self.source = source
        self.level = level
        self.root = root

    @property
    def n_triangles(self) -> int:
        return self.parents.shape[0]


def _grown(a: np.ndarray, n: int) -> np.ndarray:
    """a if it has room for n rows, else a copy of it with zero rows
    appended up to max(n, 2 len(a)), so that filling a working table row
    by row costs amortised O(1) per row."""
    if n <= len(a):
        return a
    out = np.zeros((max(n, 2 * len(a)),) + a.shape[1:], dtype=a.dtype)
    out[:len(a)] = a
    return out


def bisect(mesh: Mesh, marked: Iterable[int], b: int = 1) -> Mesh:
    """Bisect every marked triangle b times (the full b-level subtree of each
    marked triangle is created), with recursive conforming closure.

    Each pass marks the refinement edges of the descendants of `marked`,
    closes the marks, and splits them in rounds: a round splits every marked
    edge that is the refinement edge of all its triangles, numbering new
    vertices in the lexicographic order of the split edges.  A split edge
    is left unused; its halves and the new interior edges are appended.
    The result receives its edge tables from this bookkeeping.
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
    # the working tables are freed before the mesh copies what it keeps:
    # alive, they leave holes under its arrays (0.9 MB of peak RSS on the
    # L-shape P1 run)
    return Mesh(**_split_rounds(mesh, marked, b))


def _split_rounds(mesh: Mesh, marked: np.ndarray, b: int) -> dict:
    """The `Mesh` arguments of `bisect(mesh, marked, b)`."""
    # working tables: triangle rows in append order, where a split
    # triangle's first child takes its row and its second is appended;
    # perm lists the rows in the order of the mesh, where the children
    # take their parent's place and the triangles after it move down
    n, nv, ne = mesh.n_triangles, mesh.n_vertices, len(mesh.edges)
    ne0 = ne
    pts = _grown(mesh.points, 2 * nv)
    tris = _grown(mesh.triangles, 2 * n)
    eot = _grown(mesh.edge_of_triangle, 2 * n)
    gens = _grown(mesh.generations, 2 * n)
    desc = np.zeros(2 * n, dtype=bool)
    desc[marked] = True
    # anc: each row's ancestor in the input mesh, the result's parents
    anc = np.arange(2 * n)
    ends = _grown(mesh.edges, 2 * ne)
    degree = _grown(np.bincount(eot[:n].ravel(), minlength=ne), 2 * ne)
    # refs[e]: the number of triangles whose refinement edge is e; vid[e]:
    # the vertex at the midpoint of e once e is split, else 0.  Edge rows
    # from ne on stay zero until they are appended.
    refs = _grown(np.bincount(eot[:n, 2], minlength=ne), 2 * ne)
    vid = np.zeros(2 * ne, dtype=np.int64)
    perm = np.arange(n)
    rounds = 0
    for _ in range(b):
        marks = np.zeros(ne, dtype=bool)
        marks[eot[:n][desc[:n], 2]] = True
        # closure: a triangle with a marked edge has its refinement edge
        # marked.  A round keeps it closed: it unmarks only edges all of
        # whose triangles it splits, and a child's one old edge is its
        # refinement edge, so only the first round of a pass closes.
        ref = eot[:n, 2]
        while (grow := marks[eot[:n]].any(axis=1) & ~marks[ref]).any():
            marks[ref[grow]] = True
        pending = np.flatnonzero(marks)
        while pending.size:
            ready = refs[pending] == degree[pending]
            if not ready.any():
                raise MeshError(_deadlock(tris[perm], eot[perm], ends,
                                          pending[0]))
            s, pending = pending[ready], pending[~ready]
            s = s[np.lexsort((ends[s, 1], ends[s, 0]))]
            ks = s.size
            vid[s] = nv + np.arange(ks)
            # the triangles split now are those whose refinement edge gets
            # a vertex now: an edge split before is in no triangle
            split_tri = vid[eot[perm, 2]] >= nv
            at = np.flatnonzero(split_tri)
            sid = perm[at]
            k = sid.size
            if n + k > _MAX_TRIANGLES:
                raise MeshError(f"bisection would pass {_MAX_TRIANGLES} triangles")
            ne1 = ne + 2 * ks + k
            pts = _grown(pts, nv + ks)
            tris, eot, gens, desc, anc = (
                _grown(a, n + k) for a in (tris, eot, gens, desc, anc))
            ends, degree, refs, vid = (_grown(a, ne1)
                                       for a in (ends, degree, refs, vid))
            pts[nv:nv + ks] = 0.5 * (pts[ends[s, 0]] + pts[ends[s, 1]])
            # a split triangle (v0, v1, v2) becomes (v2, v0, m) in its row
            # and (v1, v2, m) in a new one
            v0, v1, v2 = tris[sid].T
            m = vid[eot[sid, 2]]
            # split edge k leaves halves (lo, m) and (hi, m) as edges
            # ne + 2k and ne + 2k + 1; split triangle j adds (v2, m) as
            # edge ne + 2 * len(s) + j
            half = ne + 2 * (m - nv)
            inner = ne + 2 * ks + np.arange(k)
            e0, e1 = eot[sid, 0], eot[sid, 1]
            new = n + np.arange(k)
            tris[sid] = np.column_stack([v2, v0, m])
            tris[new] = np.column_stack([v1, v2, m])
            eot[sid] = np.column_stack([half + (v0 > v1), inner, e1])
            eot[new] = np.column_stack([inner, half + (v1 > v0), e0])
            gens[sid] += 1
            gens[new] = gens[sid]
            desc[new] = desc[sid]
            anc[new] = anc[sid]
            ends[ne:ne + 2 * ks] = np.column_stack([ends[s].ravel(),
                                                    np.repeat(vid[s], 2)])
            ends[ne + 2 * ks:ne1] = np.column_stack([v2, m])
            degree[ne:ne + 2 * ks] = np.repeat(degree[s], 2)
            degree[ne + 2 * ks:ne1] = 2
            np.add.at(refs, e0, 1)
            np.add.at(refs, e1, 1)
            perm = np.repeat(perm, 1 + split_tri)
            perm[at + np.arange(1, k + 1)] = new
            n, nv, ne = n + k, nv + ks, ne1
            rounds += 1
    edges, renumber = _merged_edges(ends[:ne], ne0, vid[:ne] == 0, nv)
    return dict(points=pts[:nv].copy(), triangles=tris[perm],
                generations=gens[perm], parents=anc[perm], source=mesh,
                rounds=rounds, edges=edges,
                edge_of_triangle=renumber[eot[perm]])


def _merged_edges(ends, ne0, live, nv):
    """The live rows of ends in lexicographic order, and each row's new id.
    Rows below ne0, the input mesh's edges, are lexsorted already: the
    sorted new rows are merged into them."""
    old = np.flatnonzero(live[:ne0])
    new = ne0 + np.flatnonzero(live[ne0:])
    new_keys = ends[new, 0] * nv + ends[new, 1]
    order = np.argsort(new_keys)
    new = new[order]
    at = np.searchsorted(ends[old, 0] * nv + ends[old, 1], new_keys[order])
    at += np.arange(new.size)
    ids = np.empty(old.size + new.size, dtype=np.int64)
    is_new = np.zeros(ids.size, dtype=bool)
    is_new[at] = True
    ids[at] = new
    ids[~is_new] = old
    renumber = np.empty(len(ends), dtype=np.int64)
    renumber[ids] = np.arange(ids.size)
    return ends[ids], renumber


def _deadlock(tris, eot, ends, e) -> str:
    """Name the marked edge e, which cannot be split, and the first
    incident triangle whose refinement edge is another edge."""
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


def _hanging_nodes(mesh: Mesh, tree):
    """(edge, vertex) pairs, as ints, of each vertex strictly inside an edge,
    in row-major order, found with tree, a KDTree of the mesh's vertices.
    Such a vertex lies within |e|/2 of the edge's midpoint.  The edges are
    queried in classes of one power of two of that radius, widened by 1e-9
    for rounding: one tree-against-tree query per class, of its midpoints
    within its largest radius, finds every candidate, and the exact test
    decides."""
    from scipy.spatial import KDTree

    P, E = mesh.points, mesh.edges
    a = P[E[:, 0]]
    bvec = P[E[:, 1]] - a
    lb2 = np.maximum((bvec ** 2).sum(axis=1), 1e-300)
    radius = 0.5 * (1 + 1e-9) * np.sqrt(lb2)
    size = np.frexp(radius)[1]
    by_size = np.argsort(size, kind="stable")
    e, v = [], []
    for c in np.split(by_size, np.flatnonzero(np.diff(size[by_size])) + 1):
        near = KDTree(a[c] + 0.5 * bvec[c]).sparse_distance_matrix(
            tree, radius[c].max(), output_type="ndarray")
        e.append(c[near["i"]])
        v.append(near["j"])
    e, v = np.concatenate(e), np.concatenate(v)
    rel = P[v] - a[e]
    tpar = (rel * bvec[e]).sum(axis=1) / lb2[e]
    d2 = ((rel - tpar[:, None] * bvec[e]) ** 2).sum(axis=1)
    inside = ((d2 < 1e-24 * lb2[e]) & (tpar > 1e-12) & (tpar < 1 - 1e-12)
              & (v != E[e, 0]) & (v != E[e, 1]))
    e, v = e[inside], v[inside]
    order = np.lexsort((v, e))
    return zip(e[order].tolist(), v[order].tolist())


def conformity_check(mesh: Mesh) -> ConformityReport:
    """Validate conformity and bookkeeping; every violation names an offender."""
    # imported here, not at module level: no adaptive run calls this check
    from scipy.spatial import KDTree

    bad: list[str] = []
    degree = mesh._edge_incidence[2]
    for e in np.nonzero(degree > 2)[0][:10]:
        bad.append(f"edge {e} {tuple(mesh.edges[e].tolist())} "
                   f"has {degree[e]} incident triangles")

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

    # coincident vertices, such as the two sides of a slit, which the
    # hanging-node test below passes: an endpoint's duplicate has t = 0
    tree = KDTree(mesh.points)
    pairs = tree.query_pairs(0.0, output_type="ndarray")
    for a, b in sorted(pairs.tolist())[:10]:
        bad.append(f"vertices {a} and {b} coincide")

    # hanging nodes, on meshes of any size
    for e, v in _hanging_nodes(mesh, tree):
        bad.append(f"vertex {v} hangs on edge {e} {tuple(mesh.edges[e].tolist())}")
        if len(bad) > 20:
            break

    # the children of each source triangle tile it: a child that gained g
    # generations covers 2^-g of it, so with G the largest gain among them
    # the 2^(G - g) sum to 2^G.  Gains past 62 would overflow the sums.
    # The constructor has checked that each parent id lies in the source.
    if mesh.source is not None:
        src, par = mesh.source, mesh.parents
        gain = mesh.generations - src.generations[par]
        out = (gain < 0) | (gain > 62)
        for t in np.flatnonzero(out)[:10]:
            bad.append(f"triangle {t} gained {gain[t]} generations over its "
                       f"parent {par[t]}, outside [0, 62]")
        par, gain = par[~out], gain[~out]
        top = np.full(src.n_triangles, -1)
        np.maximum.at(top, par, gain)
        cover = np.zeros(src.n_triangles, dtype=np.int64)
        np.add.at(cover, par, np.left_shift(1, top[par] - gain))
        whole = np.left_shift(1, np.maximum(top, 0))
        for p in np.flatnonzero(cover != whole)[:10]:
            bad.append(f"the children of parent {p} cover {cover[p]}/"
                       f"{whole[p]} of it")

    min_angle = _min_angle(mesh)
    root = mesh.root()
    if root is not mesh:
        bound = _min_angle(root) / 2.0
        if min_angle < bound - 1e-9:
            bad.append(
                f"minimum angle {min_angle:.6f} fell below the bisection bound {bound:.6f}"
            )

    return ConformityReport(ok=not bad, violations=bad, min_angle=min_angle, area=area)
