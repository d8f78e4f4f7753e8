"""Mesh and newest-vertex bisection tests.

The refinement oracles are hand-executed bisections on tiny meshes and a
round-by-round reference bisection that builds a conforming `Mesh`, with
fresh edge tables, after every round; the refined-set oracle re-walks
parent chains in plain Python, independently of the vectorised
implementation.
"""

import tracemalloc
from functools import lru_cache, partial

import numpy as np
import pytest

from afemflux import mesh as mesh_module
from afemflux.afem import AfemConfig, run
from afemflux.galerkin import FeSpace, ScalarField, prolong
from afemflux.mesh import (
    Mesh,
    MeshError,
    LineageError,
    Link,
    ancestor_map,
    bisect,
    conformity_check,
    interior_node_depth,
    lshape,
    refined_set,
    unit_square_crisscross,
)
from test_equilibration import jittered_square, vertex_patch


@lru_cache(maxsize=None)
def uniform_lshape(rounds):
    """The L-shape bisected uniformly `rounds` times; meshes are immutable,
    so tests may share it."""
    mesh = lshape()
    for _ in range(rounds):
        mesh = bisect(mesh, range(mesh.n_triangles), 1)
    return mesh


def right_triangle_grid(n):
    """[0,n]^2 split into n^2 unit squares, each cut by the (0,0)-(1,1) diagonal."""
    xs, ys = np.meshgrid(np.arange(n + 1.0), np.arange(n + 1.0), indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    vid = lambda i, j: i * (n + 1) + j
    tris = []
    for i in range(n):
        for j in range(n):
            tris.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            tris.append([vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return Mesh.from_arrays(pts, np.array(tris))


def compatible_pair():
    """Two right triangles whose shared hypotenuse is the refinement edge of both."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return Mesh.from_arrays(pts, np.array([[0, 1, 2], [2, 3, 0]]))


# -- round-by-round reference bisection ---------------------------------


def _reference_round(mesh, pairs):
    """Split every marked edge (sorted vertex pairs) whose incident triangles
    all have it as their refinement edge; returns the new mesh and the
    leftover marked pairs."""
    tris, eot = mesh.triangles, mesh.edge_of_triangle
    ref_edge = eot[:, 2]
    ne, nv = mesh.edges.shape[0], mesh.n_vertices
    keys = mesh.edges[:, 0] * nv + mesh.edges[:, 1]
    pos = np.searchsorted(keys, pairs[:, 0] * nv + pairs[:, 1])
    assert (keys[pos] == pairs[:, 0] * nv + pairs[:, 1]).all()
    marked = np.zeros(ne, dtype=bool)
    marked[pos] = True
    while True:
        grow = marked[eot].any(axis=1) & ~marked[ref_edge]
        if not grow.any():
            break
        marked[ref_edge[grow]] = True
    compat = np.ones(ne, dtype=bool)
    for side in (0, 1):
        t = mesh.edge_triangles[:, side]
        present = t >= 0
        compat[present] &= ref_edge[t[present]] == np.nonzero(present)[0]
    splitting = marked & compat
    if not splitting.any():
        raise MeshError("bisection deadlock")

    split_tri = splitting[ref_edge]
    new_vid = np.full(ne, -1, dtype=np.int64)
    new_vid[splitting] = nv + np.arange(splitting.sum())
    mids = 0.5 * (mesh.points[mesh.edges[splitting, 0]]
                  + mesh.points[mesh.edges[splitting, 1]])
    out, gen, par = [], [], []
    for t in range(mesh.n_triangles):
        v0, v1, v2 = tris[t]
        g = mesh.generations[t]
        if split_tri[t]:
            m = new_vid[ref_edge[t]]
            out += [(v2, v0, m), (v1, v2, m)]
            gen += [g + 1, g + 1]
            par += [t, t]
        else:
            out.append((v0, v1, v2))
            gen.append(g)
            par.append(t)
    new = Mesh(np.vstack([mesh.points, mids]), np.array(out),
               generations=np.array(gen), parents=np.array(par),
               source=mesh)
    return new, mesh.edges[marked & ~splitting]


def reference_bisect(mesh, marked, b):
    """Each pass splits the refinement edges of the descendants of `marked`,
    in rounds that each leave a conforming intermediate `Mesh`."""
    frontier = np.unique(marked)
    cur = mesh
    for _ in range(b):
        prev = cur
        pairs = np.unique(np.sort(cur.triangles[frontier, :2], axis=1), axis=0)
        while pairs.size:
            cur, pairs = _reference_round(cur, pairs)
        descends = np.zeros(prev.n_triangles, dtype=bool)
        descends[frontier] = True
        frontier = np.nonzero(descends[ancestor_map(prev, cur)])[0]
    return cur


def lineage(fine, coarse):
    links = []
    while fine is not coarse.link:
        links.append(fine)
        fine = fine.source
    return links


def random_levels(make_mesh, seed, bisect_fn):
    """4-6 levels of seeded random markings with b = 1..5."""
    rng = np.random.default_rng(seed)
    meshes = [make_mesh()]
    for _ in range(int(rng.integers(4, 7))):
        m = meshes[-1]
        k = int(rng.integers(1, max(2, m.n_triangles // 10)))
        marked = rng.choice(m.n_triangles, size=k, replace=False)
        meshes.append(bisect_fn(m, marked, int(rng.integers(1, 6))))
    return meshes


@lru_cache(maxsize=None)
def lshape_p1_path():
    """b and the marked set of each refined level of the L-shape P1 run to
    8,000 dofs: Dörfler markings that concentrate at the re-entrant
    corner, bisected b = 5 times, the L-shape's interior-node depth."""
    marks = []
    result = run(AfemConfig(problem="lshape_one", degree=1, max_dofs=8000),
                 on_level=lambda state: marks.append(state.marked))
    assert result.b == interior_node_depth(lshape()) == 5
    # on the last level every triangle at the corner is of the smallest size
    last = result.final.mesh
    corner, = np.flatnonzero((last.points == 0.0).all(axis=1))
    assert last.areas[(last.triangles == corner).any(axis=1)].max() \
        == last.areas.min()
    return result.b, marks[:-1]


def lshape_p1_levels(bisect_fn):
    """The levels of the L-shape P1 run, refined by bisect_fn."""
    b, marks = lshape_p1_path()
    meshes = [lshape()]
    for marked in marks:
        meshes.append(bisect_fn(meshes[-1], marked, b))
    return meshes


class TestConstruction:
    def test_unit_square_crisscross(self):
        m = unit_square_crisscross()
        assert m.n_vertices == 5 and m.n_triangles == 4
        rep = conformity_check(m)
        assert rep.ok, rep.violations
        assert rep.area == pytest.approx(1.0, rel=1e-14)

    def test_lshape(self):
        m = lshape()
        assert m.n_vertices == 11 and m.n_triangles == 12
        rep = conformity_check(m)
        assert rep.ok, rep.violations
        assert rep.area == pytest.approx(3.0, rel=1e-14)

    def test_longest_edge_is_refinement_edge_on_roots(self):
        for m in (unit_square_crisscross(), lshape(), right_triangle_grid(3)):
            p = m.points[m.triangles]
            l_ref = ((p[:, 1] - p[:, 0]) ** 2).sum(axis=1)
            l_a = ((p[:, 2] - p[:, 1]) ** 2).sum(axis=1)
            l_b = ((p[:, 0] - p[:, 2]) ** 2).sum(axis=1)
            assert (l_ref >= l_a - 1e-14).all() and (l_ref >= l_b - 1e-14).all()

    def test_counterclockwise_orientation_enforced(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        m = Mesh.from_arrays(pts, np.array([[0, 2, 1]]))  # given clockwise
        assert m.areas[0] > 0

    def test_arrays_are_immutable(self):
        m = unit_square_crisscross()
        with pytest.raises(ValueError):
            m.points[0, 0] = 3.0
        with pytest.raises(ValueError):
            m.triangles[0, 0] = 2

    def test_caller_arrays_stay_writable_and_apart(self):
        # the constructor used to lock the caller's own arrays in place
        m = unit_square_crisscross()
        for build in (Mesh, Mesh.from_arrays):
            pts, tris = m.points.copy(), m.triangles.copy()
            built = build(pts, tris)
            assert pts.flags.writeable and tris.flags.writeable
            pts *= 2.0
            tris[:] = tris[::-1]
            assert np.array_equal(built.points, m.points)
            assert built.areas[0] == pytest.approx(0.25)
            assert not np.shares_memory(built.points, pts)

    def test_mesh_of_a_view_ignores_writes_to_its_base(self):
        m = unit_square_crisscross()
        base = np.vstack([m.points, [[7.0, 7.0]]])
        built = Mesh(base[:-1], m.triangles)
        base[:] = 0.0
        assert np.array_equal(built.points, m.points)
        assert built.points.flags.c_contiguous

    def test_attribute_assignment_is_refused(self):
        # rebinding points used to leave areas and every other cached
        # table stale, so stiffness and load could see two meshes
        m = unit_square_crisscross()
        with pytest.raises(AttributeError, match="'points'"):
            m.points = 2 * m.points
        assert m.areas[0] == 0.25
        with pytest.raises(AttributeError, match="'areas'"):
            m.areas = m.areas * 4
        assert m.areas[0] == 0.25

    def test_geometry_tables(self):
        m = bisect(lshape(), [0, 3, 7], 3)
        J = m.jacobians
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        assert np.array_equal(2 * m.areas, det)
        p = m.points[m.triangles]
        assert np.array_equal(J[:, :, 0], p[:, 1] - p[:, 0])
        assert np.array_equal(J[:, :, 1], p[:, 2] - p[:, 0])
        # edges rows run from the lower id: a flipped local edge starts
        # at the second entry of its row
        for le in range(3):
            start = m.triangles[:, (le + 1) % 3]
            row = m.edges[m.edge_of_triangle[:, le]]
            assert np.array_equal(m.edge_flips[:, le], start == row[:, 1])
            assert np.array_equal(~m.edge_flips[:, le], start == row[:, 0])

    def test_shape_classes(self):
        # graded, so classes mix sizes: each member's Jacobian is its
        # class's first element's times an exact power of two, and its
        # edges are oriented alike
        m = bisect(bisect(lshape(), np.arange(12), 2), [0, 5], 2)
        first, cls, ex = m.shape_classes
        d = ex - ex[first][cls]
        assert np.any(d != 0)
        assert np.array_equal(m.jacobians, np.ldexp(m.jacobians[first][cls],
                                                    d[:, None, None]))
        assert np.array_equal(m.edge_flips, m.edge_flips[first][cls])
        # classes numbered by their first elements, whose keys differ;
        # a key holds the bits of the scaled edge vectors
        assert np.array_equal(cls[first], np.arange(first.size))
        assert np.all(np.diff(first) > 0)
        keys, ex_first = m.shape_keys(first)
        assert np.unique(keys, axis=0).shape == keys.shape
        assert np.array_equal(ex_first, ex[first])
        e = m.scaled_edges(first)[0]
        assert np.array_equal(keys[:, :4].view(np.float64), e.reshape(-1, 4))
        assert np.array_equal(m.shape_keys()[0], keys[cls])

    def test_out_of_range_index_names_the_triangle(self):
        m = unit_square_crisscross()
        tris = m.triangles.copy()
        tris[2, 1] = 9
        for build in (Mesh, Mesh.from_arrays):
            with pytest.raises(MeshError, match=r"triangle 2 has vertex "
                               r"index 9 out of range \[0, 5\)"):
                build(m.points, tris)

    def test_handed_over_edge_tables_are_checked(self):
        # bisection hands its edge tables over (TestAgainstRoundByRound
        # compares them with a rebuild); inconsistent ones name the offender
        fine = bisect(lshape(), [0, 5], 2)
        assert "_edge_data" in vars(fine)
        pts, tris = fine.points, fine.triangles
        edges, eot = fine.edges, fine.edge_of_triangle
        assert "_edge_data" in vars(Mesh(pts, tris, edges=edges,
                                         edge_of_triangle=eot))
        swapped = eot.copy()
        swapped[3, [0, 1]] = eot[3, [1, 0]]
        tri = tuple(tris[3].tolist())
        with pytest.raises(MeshError, match=rf"^triangle 3 \({tri[0]}, "
                           rf"{tri[1]}, {tri[2]}\) is not bounded"):
            Mesh(pts, tris, edges=edges, edge_of_triangle=swapped)
        unsorted = edges.copy()
        unsorted[4] = edges[4, ::-1]
        hi, lo = unsorted[4].tolist()
        with pytest.raises(MeshError, match=rf"^edge 4 \({hi}, {lo}\) is "
                           "not a sorted pair"):
            Mesh(pts, tris, edges=unsorted, edge_of_triangle=eot)
        # the pair (0, nv - 1) is no edge; inserted in its lexicographic
        # place, it is used by no triangle
        nv = fine.n_vertices
        assert not ((edges == [0, nv - 1]).all(axis=1)).any()
        k = int(np.searchsorted(edges[:, 0] * nv + edges[:, 1], nv - 1))
        with pytest.raises(MeshError, match=rf"^edge {k} \(0, {nv - 1}\) is "
                           "in no triangle"):
            Mesh(pts, tris, edges=np.insert(edges, k, [0, nv - 1], axis=0),
                 edge_of_triangle=eot + (eot >= k))
        with pytest.raises(MeshError, match="come together"):
            Mesh(pts, tris, edges=edges)

    def test_degenerate_triangle_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(MeshError):
            Mesh.from_arrays(pts, np.array([[0, 1, 2]]))

    def test_lineage_arrays_have_one_entry_per_triangle(self):
        # one generation for two triangles would be saved as a file that
        # load_tri rejects
        m = compatible_pair()
        with pytest.raises(MeshError, match=r"shape \(2,\)"):
            Mesh(m.points, m.triangles, generations=np.array([3]))
        with pytest.raises(MeshError, match=r"shape \(2,\)"):
            Mesh(m.points, m.triangles, parents=np.zeros((2, 1), dtype=int))

    def test_parents_lie_in_the_source(self):
        m = compatible_pair()
        f = bisect(m, [0], 1)
        for bad in (-1, 2):
            with pytest.raises(MeshError, match=r"parent id out of range \[0, 2\)"):
                Mesh(f.points, f.triangles, f.generations, [0, 0, 1, bad],
                     source=m)
        # a mesh given as source enters the chain through its link
        g = Mesh(f.points, f.triangles, f.generations, f.parents, source=m)
        assert g.source is m.link is f.source and g.level == 1
        assert np.array_equal(ancestor_map(m, g), f.parents)

    def test_from_arrays_names_an_out_of_range_vertex(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        for bad in (3, -1):
            with pytest.raises(MeshError, match=f"vertex index {bad} out of range"):
                Mesh.from_arrays(pts, np.array([[0, 1, bad]]))

    def test_from_arrays_rejects_points_of_the_wrong_shape(self):
        # a 1-D array used to raise numpy's AxisError, and an (nv, 3) array
        # went through orientation on its first two columns
        for pts in (np.zeros(6), np.zeros((3, 3))):
            with pytest.raises(MeshError, match=r"points must be an \(nv, 2\)"):
                Mesh.from_arrays(pts, [[0, 1, 2]])

    def test_names_a_vertex_in_no_triangle(self):
        # a stray point would leave the stiffness matrix singular, and the
        # sparse factorisation's error names no vertex
        m = unit_square_crisscross()
        pts = np.insert(m.points, 2, [2.0, 2.0], axis=0)
        tris = m.triangles + (m.triangles >= 2)
        for build in (Mesh, Mesh.from_arrays):
            with pytest.raises(MeshError, match="vertex 2 is in no triangle"):
                build(pts, tris)

    def test_clockwise_triangle_rejected(self):
        # triangle 5 of this mesh listed clockwise gave a P2 eta_delta of
        # 0.1202 instead of 0.0983 (f = 1), and the flux still verified
        m = bisect(lshape(), [0, 1, 2, 3], 2)
        tris = m.triangles.copy()
        tris[5] = tris[5, [1, 0, 2]]
        with pytest.raises(MeshError, match="triangle 5 is not counterclockwise"):
            Mesh(m.points, tris)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="triangle 0 is not counterclockwise"):
            Mesh(pts, np.array([[0, 2, 1]]))

    def test_names_a_vertex_with_a_non_finite_coordinate(self):
        # a NaN point used to surface only as a singular factorisation
        m = unit_square_crisscross()
        for bad in (np.nan, np.inf):
            pts = m.points.copy()
            pts[3, 1] = bad
            for build in (Mesh, Mesh.from_arrays):
                with pytest.raises(MeshError,
                                   match="vertex 3 has a non-finite"):
                    build(pts, m.triangles)

    def test_vertex_and_triangle_arrays(self):
        m = unit_square_crisscross()
        assert tuple(m.points[4]) == (0.5, 0.5) and not m.boundary_vertex[4]
        assert m.boundary_vertex[0]
        assert m.areas[0] == pytest.approx(0.25)
        assert m.diameters[0] == pytest.approx(1.0)
        assert m.generations[0] == 0 and m.parents[0] == -1


class TestBisection:
    def test_single_triangle_splits_alone(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        m = Mesh.from_arrays(pts, np.array([[0, 1, 2]]))
        f = bisect(m, [0], 1)
        assert f.n_triangles == 2
        assert conformity_check(f).ok
        # midpoint of the hypotenuse is the new vertex
        assert np.allclose(f.points[-1], [0.5, 0.5])

    def test_compatible_pair_closure(self):
        # marking one triangle of a compatible pair splits both: 4 triangles
        m = compatible_pair()
        f = bisect(m, [0], 1)
        assert f.n_triangles == 4
        assert (f.generations == 1).all()
        assert conformity_check(f).ok, conformity_check(f).violations

    def test_child_ordering_convention(self):
        # children of (v0, v1, v2) are (v2, v0, m) then (v1, v2, m)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        m = Mesh.from_arrays(pts, np.array([[0, 1, 2]]))
        v0, v1, v2 = m.triangles[0]
        f = bisect(m, [0], 1)
        mid = f.n_vertices - 1
        assert list(f.triangles[0]) == [v2, v0, mid]
        assert list(f.triangles[1]) == [v1, v2, mid]
        assert (f.areas > 0).all()

    def test_uniform_marking_exactly_doubles(self):
        m = unit_square_crisscross()
        for _ in range(4):
            f = bisect(m, np.arange(m.n_triangles), 1)
            assert f.n_triangles == 2 * m.n_triangles
            assert (f.generations == m.generations.max() + 1).all()
            assert conformity_check(f).ok
            m = f

    def test_uniform_marking_lshape(self):
        m = lshape()
        f = bisect(m, np.arange(m.n_triangles), 1)
        assert f.n_triangles == 24
        assert conformity_check(f).ok

    def test_b_levels_make_full_subtree(self):
        m = unit_square_crisscross()
        for b in (1, 2, 3):
            f = bisect(m, [1], b)
            assert 1 in refined_set(m, f, b)
            assert conformity_check(f).ok

    def test_parent_chain_length_equals_generation(self):
        # one link per call, whose gain over its parent is that call's
        # number of generations, however many rounds it took
        f = bisect(bisect(bisect(lshape(), [0, 5], 3), [1, 2], 2), [4], 4)
        rng = np.random.default_rng(7)
        for t in rng.choice(f.n_triangles, size=8, replace=False):
            g, links = 0, 0
            cur, tid = f, int(t)
            while cur.source is not None:
                pid = int(cur.parents[tid])
                dg = int(cur.generations[tid] - cur.source.generations[pid])
                assert dg >= 0
                g, links = g + dg, links + 1
                cur, tid = cur.source, pid
            assert g == int(f.generations[t])
            assert links == 3

    def test_area_preserved(self):
        m = lshape()
        f = bisect(m, [3], 4)
        assert f.areas.sum() == pytest.approx(3.0, rel=1e-13)

    def test_argument_errors(self):
        m = unit_square_crisscross()
        with pytest.raises(MeshError):
            bisect(m, [17], 1)
        with pytest.raises(MeshError):
            bisect(m, [0], 0)
        with pytest.raises(MeshError, match="empty"):
            bisect(m, [], 1)

    def test_rejects_masks_and_non_integer_ids(self):
        # a boolean mask of triangles 5 and 7 would otherwise be read as
        # the ids 0 and 1, and 2.7 as triangle 2
        mask = np.zeros(12, dtype=bool)
        mask[[5, 7]] = True
        with pytest.raises(MeshError, match="integer ids"):
            bisect(lshape(), mask, 1)
        with pytest.raises(MeshError, match="integer ids"):
            bisect(unit_square_crisscross(), [2.7], 1)
        assert bisect(lshape(), np.array([5, 7], dtype=np.uint8),
                      1).n_triangles > 12

    def test_deadlock_names_blocked_edge(self):
        # fan around vertex 0 whose triangle i has as refinement edge the
        # spoke it shares with triangle i + 1: closure marks every spoke,
        # and each spoke is the refinement edge of only one of its triangles
        n = 6
        ang = 2 * np.pi * np.arange(n) / n
        pts = np.vstack([[0.0, 0.0], np.column_stack([np.cos(ang), np.sin(ang)])])
        rim = 1 + np.arange(n)
        tris = np.column_stack([np.roll(rim, -1), np.zeros(n, dtype=int), rim])
        m = Mesh(pts, tris)
        with pytest.raises(MeshError, match="deadlock") as err:
            bisect(m, [0], 1)
        # spoke (0, 1) is the refinement edge of triangle 5 = (1, 0, 6)
        # but not of triangle 0 = (2, 0, 1)
        assert "marked edge (0, 1)" in str(err.value)
        assert "triangle 0 (2, 0, 1)" in str(err.value)

    def test_triangle_count_fits_int32_lineage(self, monkeypatch):
        monkeypatch.setattr(mesh_module, "_MAX_TRIANGLES", 20)
        with pytest.raises(MeshError, match="20 triangles"):
            bisect(lshape(), np.arange(12), 1)
        assert bisect(unit_square_crisscross(), np.arange(4), 2).n_triangles == 16

    def test_min_angle_classes_stabilise(self):
        # skewed start: min angle over uniform rounds takes few distinct
        # values and stays above half the initial minimum angle
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8], [1.3, 0.8]])
        m = Mesh.from_arrays(pts, np.array([[0, 1, 2], [1, 3, 2]]))
        a0 = conformity_check(m).min_angle
        angles = []
        for _ in range(6):
            m = bisect(m, np.arange(m.n_triangles), 1)
            rep = conformity_check(m)
            assert rep.ok, rep.violations
            angles.append(round(rep.min_angle, 12))
        assert len(set(angles)) <= 4
        assert min(angles) >= a0 / 2 - 1e-9
        # once the similarity classes have appeared the minimum stops moving
        assert angles[-1] == angles[-2] == angles[-3]


class TestAgainstRoundByRound:
    @pytest.mark.parametrize("levels", [
        *(pytest.param(partial(random_levels, make_mesh, seed),
                       id=f"{make_mesh.__name__}-{seed}")
          for make_mesh in (lshape, unit_square_crisscross, jittered_square)
          for seed in (0, 1)),
        pytest.param(lshape_p1_levels, id="lshape_p1")])
    def test_same_meshes_and_lineage(self, levels):
        ours, refs = levels(bisect), levels(reference_bisect)
        assert len(ours) == len(refs)
        for i in range(1, len(ours)):
            a, r = ours[i], refs[i]
            for name in ("triangles", "points", "generations"):
                assert np.array_equal(getattr(a, name), getattr(r, name)), name
            # one link per call: its parents are the reference's rounds
            # composed, and its level gain is the reference's round count
            assert lineage(a, ours[i - 1]) == [a]
            assert np.array_equal(a.parents, ancestor_map(refs[i - 1], r))
            assert a.level - ours[i - 1].level \
                == len(lineage(r, refs[i - 1])) >= 1
            assert a.level == r.level
            if i + 1 < len(ours):
                link = ours[i + 1].source
                assert isinstance(link, Link) and link is a.link
                assert np.array_equal(link.parents, a.parents)
                assert np.array_equal(link.generations, a.generations)
                assert link.level == a.level
            # the edge tables bisection hands over are those a fresh mesh
            # of the same points and triangles builds
            fresh = Mesh(a.points, a.triangles)
            for name in ("edges", "edge_of_triangle", "edge_triangles"):
                assert np.array_equal(getattr(a, name), getattr(fresh, name)), name

    def test_lineage_walks_unchanged(self):
        ours = random_levels(lshape, 3, bisect)
        refs = random_levels(lshape, 3, reference_bisect)
        coarse, fine = ours[1], ours[-1]
        anc = ancestor_map(coarse, fine)
        assert anc.dtype == np.int64
        assert np.array_equal(anc, ancestor_map(refs[1], refs[-1]))
        for j in (1, 2, 3):
            assert np.array_equal(refined_set(coarse, fine, j),
                                  refined_set(refs[1], refs[-1], j))
        rng = np.random.default_rng(0)
        space = FeSpace(coarse, 2)
        u = rng.standard_normal(space.n_dofs)
        ours_u = prolong(ScalarField(space, u), FeSpace(fine, 2))
        refs_u = prolong(ScalarField(FeSpace(refs[1], 2), u),
                         FeSpace(refs[-1], 2))
        assert np.array_equal(ours_u.coeffs, refs_u.coeffs)


class TestRefinedSet:
    @staticmethod
    def oracle(coarse, fine, j):
        """Brute-force: walk every fine triangle's chain to its coarse ancestor."""
        min_gain = {}
        for t in range(fine.n_triangles):
            cur, tid = fine, t
            while cur is not coarse.link:
                tid = int(cur.parents[tid])
                cur = cur.source
            gain = int(fine.generations[t]) - int(coarse.generations[tid])
            min_gain[tid] = min(min_gain.get(tid, 10 ** 9), gain)
        return sorted(t for t in range(coarse.n_triangles) if min_gain[t] >= j)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_descendant_scan(self, seed):
        rng = np.random.default_rng(seed)
        coarse = lshape()
        fine = coarse
        for _ in range(3):
            k = rng.integers(1, fine.n_triangles // 2 + 2)
            marked = rng.choice(fine.n_triangles, size=k, replace=False)
            fine = bisect(fine, marked, int(rng.integers(1, 3)))
        for j in (1, 2, 3):
            assert refined_set(coarse, fine, j).tolist() == \
                self.oracle(coarse, fine, j)

    def test_r1_is_split_elements(self):
        m = unit_square_crisscross()
        f = bisect(m, [2], 1)
        anc = ancestor_map(m, f)
        split = np.unique(anc[np.bincount(anc, minlength=m.n_triangles)[anc] > 1])
        assert refined_set(m, f, 1).tolist() == split.tolist()

    def test_identity_and_errors(self):
        m = unit_square_crisscross()
        assert refined_set(m, m, 1).size == 0
        other = lshape()
        with pytest.raises(LineageError):
            refined_set(m, other, 1)
        with pytest.raises(MeshError):
            refined_set(m, m, 0)


class TestPatchesAndDepth:
    def test_interior_vertex_patch_of_grid(self):
        m = right_triangle_grid(3)
        interior = np.nonzero(~m.boundary_vertex)[0]
        for v in interior:
            els, _, spokes = vertex_patch(m, v)
            assert els.size == m.valences[v] == 6
            assert spokes.size == 6
            assert (m.triangles[els] == v).any(axis=1).all()

    def test_patch_edges_relations(self):
        m = bisect(lshape(), np.arange(12), 1)
        for v in range(m.n_vertices):
            els, slots, spokes = vertex_patch(m, v)
            assert els.size == m.valences[v]
            # every interior spoke is shared by exactly two patch triangles
            for e in spokes:
                inc = set(m.edge_triangles[e]) & set(els.tolist())
                assert len(inc) == 2
            # the rim has one patch triangle per edge
            rim = m.edge_of_triangle[els, slots]
            assert not (m.edges[rim] == v).any()
            assert np.unique(rim).size == els.size

    def test_lshape_patch_table(self):
        # hand-listed stars of the initial 12-triangle L-shape
        m = lshape()
        # vertex 0 = (-1,-1): corner of one square -> 2 triangles
        assert vertex_patch(m, 0)[0].size == 2
        # the centre of each square has all four of its triangles
        centers = [v for v in range(m.n_vertices) if m.valences[v] == 4
                   and not m.boundary_vertex[v]]
        assert len(centers) == 3
        # re-entrant corner (0,0) has valence 6
        corner = [v for v in range(m.n_vertices)
                  if np.allclose(m.points[v], [0.0, 0.0])][0]
        assert m.valences[corner] == 6
        els, _, spokes = vertex_patch(m, corner)
        assert els.size == 6 and spokes.size == 5

    def test_interior_node_depth_values(self):
        assert interior_node_depth(unit_square_crisscross()) == 3
        assert interior_node_depth(lshape()) == 5
        # 2x2 criss-cross block: the shared corner has valence 8 -> ceil(24/4)=6
        from afemflux.mesh import _crisscross
        m = _crisscross([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        assert interior_node_depth(m) == 6
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        single = Mesh.from_arrays(pts, np.array([[0, 1, 2]]))
        assert interior_node_depth(single) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_interior_node_property_at_jstar(self, seed):
        mesh = lshape()
        jstar = interior_node_depth(mesh)
        rng = np.random.default_rng(seed)
        marked = rng.choice(mesh.n_triangles, size=3, replace=False)
        fine = bisect(mesh, marked, jstar)
        anc = ancestor_map(mesh, fine)
        old = mesh.n_vertices
        for t in marked:
            tri = mesh.points[mesh.triangles[t]]
            # fine vertices introduced strictly inside the coarse triangle
            new_pts = fine.points[old:]
            A = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
            lam = np.linalg.solve(A, (new_pts - tri[0]).T).T
            l0 = 1 - lam.sum(axis=1)
            bc = np.column_stack([l0, lam])
            assert (bc.min(axis=1) > 1e-12).any(), "no interior vertex"
            # each edge carries a fine vertex in its relative interior
            for i in range(3):
                a, b = tri[(i + 1) % 3], tri[(i + 2) % 3]
                d = b - a
                tpar = (new_pts - a) @ d / (d @ d)
                rel = new_pts - a
                on = np.abs(d[0] * rel[:, 1] - d[1] * rel[:, 0]) < 1e-12
                assert (on & (tpar > 1e-12) & (tpar < 1 - 1e-12)).any()

    def test_b1_no_interior_node(self):
        mesh = lshape()
        fine = bisect(mesh, [0], 1)
        tri = mesh.points[mesh.triangles[0]]
        new_pts = fine.points[mesh.n_vertices:]
        A = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
        lam = np.linalg.solve(A, (new_pts - tri[0]).T).T
        bc = np.column_stack([1 - lam.sum(axis=1), lam])
        assert not (bc.min(axis=1) > 1e-12).any()


class TestConformityDiagnostics:
    def test_overlapping_triangles_flagged(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        m = Mesh(pts, np.array([[0, 1, 2], [0, 1, 3]]))
        rep = conformity_check(m)
        assert not rep.ok
        assert any("encloses" in v or "boundary" in v for v in rep.violations)

    def test_hanging_node_flagged(self):
        pts = np.array([
            [0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 0.0], [0.5, -1.0],
        ])
        tris = np.array([[0, 1, 2], [0, 4, 3], [3, 4, 1]])
        rep = conformity_check(Mesh(pts, tris))
        assert not rep.ok
        hangs = [v for v in rep.violations if "hangs" in v]
        assert hangs == ["vertex 3 hangs on edge 0 (0, 1)"]

    def test_slit_of_coincident_vertices_flagged(self):
        # the unit square cut along its diagonal: vertices 4 and 5 copy 0
        # and 2, so both boundary loops close, the areas agree and no
        # vertex lies strictly inside an edge
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                        [0.0, 0.0], [1.0, 1.0]])
        rep = conformity_check(Mesh(pts, np.array([[0, 1, 2], [4, 5, 3]])))
        assert rep.violations == ["vertices 0 and 4 coincide",
                                  "vertices 2 and 5 coincide"]
        assert not rep.ok

    def test_edge_of_degree_three_flagged(self):
        pts = np.array([
            [0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0],
        ])
        tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
        rep = conformity_check(Mesh(pts, tris))
        assert rep.violations[0] == "edge 0 (0, 1) has 3 incident triangles"

    def test_children_tile_each_parent(self):
        # a call's one link spans all its rounds, so gains pass 1 here;
        # children of a gain g cover 2^-g of their parent.  A forged
        # lineage with a dropped child, a duplicated child or a negative
        # gain names the parent it leaves untiled.
        coarse = uniform_lshape(1)
        fine = bisect(coarse, [0, 5], 3)
        pts, tris, gens, par = (fine.points, fine.triangles,
                                fine.generations, fine.parents)
        gains = gens - coarse.generations[par]
        assert gains.max() > 1 and (gains == 0).any()
        assert conformity_check(fine).ok

        def lineage_violations(tris, gens, par):
            rep = conformity_check(Mesh(pts, tris, gens, par, source=coarse))
            assert not rep.ok
            return [v for v in rep.violations if "parent" in v]

        def cover(g):
            top = max(g)
            return f"{sum(2 ** (top - x) for x in g)}/{2 ** top}"

        # a child whose vertices all stay in other triangles
        t = next(t for t in np.flatnonzero(gains > 0)
                 if np.unique(np.delete(tris, t, axis=0)).size == len(pts))
        p = int(par[t])
        kids = np.flatnonzero(par == p)
        rest, twice = kids[kids != t], np.append(kids, t)
        assert lineage_violations(np.delete(tris, t, axis=0),
                                  np.delete(gens, t), np.delete(par, t)) == [
            f"the children of parent {p} cover {cover(gains[rest])} of it"]
        assert lineage_violations(np.vstack([tris, tris[t]]),
                                  np.append(gens, gens[t]),
                                  np.append(par, p)) == [
            f"the children of parent {p} cover {cover(gains[twice])} of it"]
        low = gens.copy()
        low[t] = coarse.generations[p] - 1
        assert lineage_violations(tris, low, par) == [
            f"triangle {t} gained -1 generations over its parent {p}, "
            "outside [0, 62]",
            f"the children of parent {p} cover {cover(gains[rest])} of it"]

    @staticmethod
    def strip(n):
        """n unit squares under 2n half-width squares: the midpoint of each
        lower square's top edge hangs on it, 5n + 3 vertices."""
        bottom = [(i, 0.0) for i in range(n + 1)]
        middle = [(j / 2, 1.0) for j in range(2 * n + 1)]
        top = [(j / 2, 2.0) for j in range(2 * n + 1)]
        B, M, T = 0, n + 1, 3 * n + 2
        tris = [t for i in range(n) for t in
                ((B + i, B + i + 1, M + 2 * i + 2), (B + i, M + 2 * i + 2, M + 2 * i))]
        tris += [t for j in range(2 * n) for t in
                 ((M + j, M + j + 1, T + j + 1), (M + j, T + j + 1, T + j))]
        return Mesh(np.array(bottom + middle + top), np.array(tris))

    def test_hanging_nodes_in_row_major_order_and_capped(self):
        rep = conformity_check(self.strip(25))
        hangs = [v for v in rep.violations if "hangs" in v]
        assert len(rep.violations) == 21 and hangs
        assert [int(v.split()[1]) for v in hangs] == \
            list(range(27, 27 + 2 * len(hangs), 2))  # M + 1, M + 3, ...

    def test_hanging_node_scan_memory(self):
        # a scan of all (edge, vertex) pairs grows with edges x vertices:
        # 229 MB at 1,141 vertices of this family
        mesh = bisect(uniform_lshape(8), range(600), 1)
        assert 1800 < mesh.n_vertices <= 2000
        mesh.edges, mesh.areas, mesh.edge_triangles  # tables the mesh keeps
        import scipy.spatial  # noqa: F401  its import alone traces about 26 MB
        tracemalloc.start()
        try:
            rep = conformity_check(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok, rep.violations
        assert peak < 16 << 20, f"{peak / 2**20:.1f} MB"

    @staticmethod
    def split_alone(mesh, ts):
        """mesh with each triangle of ts, whose refinement edges are
        interior and distinct, bisected alone, and the violations that
        name the midpoints hanging on the neighbours' edges."""
        v0, v1, v2 = mesh.triangles[ts].T
        mid = mesh.n_vertices + np.arange(len(ts))
        pts = np.vstack([mesh.points, (mesh.points[v0] + mesh.points[v1]) / 2])
        tris = np.vstack([np.delete(mesh.triangles, ts, axis=0),
                          np.column_stack([v2, v0, mid]),
                          np.column_stack([v1, v2, mid])])
        split = Mesh(pts, tris)
        lo, hi = np.minimum(v0, v1), np.maximum(v0, v1)
        rows = [np.flatnonzero((split.edges == pair).all(axis=1))[0]
                for pair in zip(lo, hi)]
        return split, [f"vertex {m} hangs on edge {e} ({a}, {b})" for e, m, a, b
                       in sorted(zip(rows, mid.tolist(), lo.tolist(), hi.tolist()))]

    def test_interior_hanging_node_past_2000_vertices(self):
        # one triangle of the conforming 3,201-vertex mesh split alone: its
        # midpoint hangs on the neighbour's edge
        mesh = uniform_lshape(9)
        t = int(np.flatnonzero(~mesh.boundary_edge[mesh.edge_of_triangle[:, 2]])[0])
        split, hangs = self.split_alone(mesh, [t])
        assert split.n_vertices == 3202
        assert conformity_check(split).violations == hangs

    @staticmethod
    def jittered_lshape():
        """uniform_lshape(9) with its interior vertices moved by a seeded
        offset: edges of every length."""
        mesh = uniform_lshape(9)
        rng = np.random.default_rng(5)
        offset = 0.2 * mesh.edge_lengths.min() * rng.uniform(-1, 1, mesh.points.shape)
        offset[mesh.boundary_vertex] = 0.0
        return Mesh(mesh.points + offset, mesh.triangles)

    @pytest.mark.parametrize("make_mesh, classes", [
        (lambda: lshape_p1_levels(bisect)[-1], 3),
        (jittered_lshape, 1)], ids=["graded", "jittered"])
    def test_hanging_nodes_on_edges_of_many_lengths(self, make_mesh, classes):
        # the scan queries the edges by power-of-two length class, each
        # within its largest radius: split triangles of sizes from the
        # smallest to the largest alone, with refinement edges that share
        # no vertex, so that the boundary loops each split leaves close
        mesh = make_mesh()
        interior = np.flatnonzero(~mesh.boundary_edge[mesh.edge_of_triangle[:, 2]])
        by_area = interior[np.argsort(mesh.areas[interior], kind="stable")]
        ts, used = [], set()
        for t in by_area[np.linspace(0, by_area.size - 1, 10).astype(int)]:
            if not used & set(mesh.triangles[t, :2].tolist()):
                ts.append(t)
                used |= set(mesh.triangles[t, :2].tolist())
        split, hangs = self.split_alone(mesh, ts)
        sizes = np.frexp(mesh.edge_lengths[mesh.edge_of_triangle[ts, 2]])[1]
        assert len(ts) >= 8 and np.unique(sizes).size >= classes
        assert conformity_check(split).violations == hangs

    def test_uniform_mesh_past_2000_vertices_conforms(self):
        mesh = uniform_lshape(9)
        assert mesh.n_vertices == 3201
        assert conformity_check(mesh).ok

    def test_graded_adaptive_mesh_past_2000_vertices_conforms(self):
        mesh = run(AfemConfig(problem="lshape_one", degree=1, max_dofs=3000)).final.mesh
        assert mesh.n_vertices > 2000
        rep = conformity_check(mesh)
        assert rep.ok, rep.violations


class TestFileFormats:
    def test_tri_round_trip_byte_identical(self, tmp_path):
        m = bisect(lshape(), [0, 4, 7], 2)
        p1 = tmp_path / "a.tri"
        p2 = tmp_path / "b.tri"
        m.save_tri(p1)
        m2 = Mesh.load_tri(p1)
        m2.save_tri(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(m.triangles, m2.triangles)
        assert np.array_equal(m.generations, m2.generations)
        assert np.array_equal(m.points, m2.points)
        assert np.array_equal(m.boundary_vertex, m2.boundary_vertex)

    def test_tri_rejects_truncated(self, tmp_path):
        p = tmp_path / "bad.tri"
        p.write_text("3 1\n0 0 1\n1 0 1\n")
        with pytest.raises(MeshError):
            Mesh.load_tri(p)
        # a negative count used to slice the tokens into numpy's bare
        # reshape error
        p.write_text("-1 1 0\n")
        with pytest.raises(MeshError, match="negative count"):
            Mesh.load_tri(p)

    def test_tri_names_a_non_finite_vertex(self, tmp_path):
        p = tmp_path / "nan.tri"
        unit_square_crisscross().save_tri(p)
        lines = p.read_text().splitlines()
        lines[1 + 2] = "nan 0.0 1"  # vertex 2
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match="vertex 2 has a non-finite"):
            Mesh.load_tri(p)

    @pytest.mark.parametrize("line, text, where, bad", [
        (1 + 2, "x 0.0 1", "vertex 2", "x"),           # header, 5 vertices
        (1 + 5 + 1, "0 1 2.5 0", "triangle 1", "2.5"),  # then triangles
        (1 + 5 + 3, "0 1 2 99999999999999999999", "triangle 3",
         "99999999999999999999"),
    ])
    def test_tri_names_a_malformed_token(self, tmp_path, line, text, where,
                                         bad):
        # a bad token used to raise numpy's bare ValueError, and an integer
        # past int64 its OverflowError, naming no file
        p = tmp_path / "bad.tri"
        unit_square_crisscross().save_tri(p)
        lines = p.read_text().splitlines()
        lines[line] = text
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match=f"bad.tri: {where} has a "
                           f"malformed number '{bad}'"):
            Mesh.load_tri(p)

    def test_vtk_against_reference_parser(self, tmp_path):
        m = bisect(unit_square_crisscross(), [0], 2)
        path = tmp_path / "m.vtk"
        m.save_vtk(path)
        # independent minimal legacy-VTK reader
        tok = path.read_text().split("\n")
        assert tok[0].startswith("# vtk DataFile")
        assert "ASCII" in tok[2]
        assert tok[3] == "DATASET UNSTRUCTURED_GRID"
        npts = int(tok[4].split()[1])
        pts = np.array([list(map(float, tok[5 + i].split())) for i in range(npts)])
        assert np.allclose(pts[:, :2], m.points) and np.allclose(pts[:, 2], 0.0)
        line = 5 + npts
        ncell, sz = map(int, tok[line].split()[1:])
        assert ncell == m.n_triangles and sz == 4 * ncell
        cells = np.array([list(map(int, tok[line + 1 + i].split()))
                          for i in range(ncell)])
        assert (cells[:, 0] == 3).all()
        assert np.array_equal(cells[:, 1:], m.triangles)
        line += 1 + ncell
        assert tok[line].startswith("CELL_TYPES")
        types = [int(tok[line + 1 + i]) for i in range(ncell)]
        assert set(types) == {5}
        line += 1 + ncell
        assert tok[line].startswith("CELL_DATA")
        assert tok[line + 1].startswith("SCALARS generation")
        gens = [int(tok[line + 3 + i]) for i in range(ncell)]
        assert gens == m.generations.tolist()

    def test_exports_match_per_row_formatting(self, tmp_path):
        # the files are formatted from lists of rows; each must equal
        # the row-by-row formatting of the numpy scalars, byte for byte
        m = bisect(jittered_square(), [0, 17, 40], 3)
        pts, tris, gens = m.points, m.triangles, m.generations
        bnd = m.boundary_vertex
        tri = [f"{m.n_vertices} {m.n_triangles}"]
        tri += [f"{float(pts[i, 0])!r} {float(pts[i, 1])!r} "
                f"{1 if bnd[i] else 0}" for i in range(m.n_vertices)]
        tri += [f"{tris[t, 0]} {tris[t, 1]} {tris[t, 2]} {gens[t]}"
                for t in range(m.n_triangles)]
        nt = m.n_triangles
        vtk = ["# vtk DataFile Version 3.0", "triangulation", "ASCII",
               "DATASET UNSTRUCTURED_GRID", f"POINTS {m.n_vertices} double"]
        vtk += [f"{float(pts[i, 0])!r} {float(pts[i, 1])!r} 0.0"
                for i in range(m.n_vertices)]
        vtk += [f"CELLS {nt} {4 * nt}"]
        vtk += [f"3 {tris[t, 0]} {tris[t, 1]} {tris[t, 2]}"
                for t in range(nt)]
        vtk += [f"CELL_TYPES {nt}"] + ["5"] * nt
        vtk += [f"CELL_DATA {nt}", "SCALARS generation int 1",
                "LOOKUP_TABLE default"] + [str(int(g)) for g in gens]
        m.save_tri(tmp_path / "m.tri")
        m.save_vtk(tmp_path / "m.vtk")
        assert (tmp_path / "m.tri").read_text() == "\n".join(tri) + "\n"
        assert (tmp_path / "m.vtk").read_text() == "\n".join(vtk) + "\n"

    @pytest.mark.parametrize("rows", [1, 7])
    def test_exports_in_chunks_match_one_piece(self, tmp_path, monkeypatch,
                                               rows):
        # the writers list one row or a few rows at a time, byte for byte
        # as in chunks of the default size
        m = bisect(jittered_square(), [0, 17, 40], 3)
        for name in ("whole", "parts"):
            (tmp_path / name).mkdir()
            with monkeypatch.context() as mp:
                if name == "parts":
                    mp.setattr(mesh_module, "_FILE_ROWS", rows)
                m.save_tri(tmp_path / name / "m.tri")
                m.save_vtk(tmp_path / name / "m.vtk")
        for f in ("m.tri", "m.vtk"):
            assert (tmp_path / "parts" / f).read_bytes() == \
                (tmp_path / "whole" / f).read_bytes()
