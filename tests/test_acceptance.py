"""End-to-end acceptance checks for the adaptive equilibrated-flux engine.

Each test covers one numbered criterion and prints a single
``criterion NN (...): PASS/FAIL`` line (visible with ``pytest -s``).
The heavyweight fixtures are module-scoped so the large adaptive run and
the uniform refinement sequences are computed once and shared.
"""

import numpy as np
import pytest

from afemflux.afem import AfemConfig, check_hypotheses, doerfler_mark, fit_rate, run
from afemflux.cli import main as cli_main
from afemflux.equilibration import (
    equilibrate,
    prager_synge_terms,
    verify_equilibration,
)
from afemflux.estimators import estimate
from afemflux.galerkin import FeSpace, energy_error, solve_poisson
from afemflux.mesh import bisect, interior_node_depth, lshape
from afemflux.problems import get_problem


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _uniform(mesh):
    return bisect(mesh, np.arange(mesh.n_triangles), 1)


@pytest.fixture(scope="module")
def lshape_run():
    """Adaptive run on the L-shape driven to 1e5 dofs (criteria 5 and 6).

    Returns the result and, per level, the extrema of the vertex ratio
    eta_star / (eta_res_star + osc_star) with the smallest denominator,
    taken as each level finishes so that the run holds one level at a time.
    """
    brackets = []

    def bracket(state):
        rep = state.report
        den = rep.eta_res_star + rep.osc_star
        ratio = rep.eta_star / den
        brackets.append((ratio.min(), ratio.max(), den.min()))

    result = run(
        AfemConfig(
            problem="lshape_one",
            degree=1,
            estimator="delta",
            theta=0.5,
            bisections="auto",
            max_dofs=100_000,
            max_levels=40,
        ),
        bracket,
    )
    return result, np.array(brackets)


@pytest.fixture(scope="module")
def poly_k2_levels():
    """Uniform refinement sequence for the quartic problem at degree 2.

    The data polynomial has degree 2, so its degree-2 moment projection is
    exact and the hypercircle identity holds without an oscillation term.
    Returns per-level (error, flux distance, bound, total indicator).
    """
    prob = get_problem("square_poly")
    mesh = prob.mesh_factory()
    out = []
    while True:
        space = FeSpace(mesh, 2)
        u = solve_poisson(space, prob.f)
        flux = equilibrate(u, prob.f)
        err, dist, bound = prager_synge_terms(u, flux, prob.grad_exact)
        eta = float(np.sqrt((flux.eta_delta**2).sum()))
        out.append((err, dist, bound, eta))
        if mesh.n_triangles >= 8192:
            break
        mesh = _uniform(mesh)
    return out


def test_criterion_01_equilibration_exactness():
    """Divergence and normal-jump residuals of the reconstructed flux
    vanish to round-off on both smooth problems, degrees 1 and 2, on
    meshes up to 1e4 elements."""
    worst_div = worst_jump = 0.0
    for pname in ("square_poly", "square_sine"):
        prob = get_problem(pname)
        for degree in (1, 2):
            mesh = prob.mesh_factory()
            while mesh.n_triangles < 8192:
                mesh = _uniform(mesh)
                if mesh.n_triangles in (1024, 8192):
                    space = FeSpace(mesh, degree)
                    u = solve_poisson(space, prob.f)
                    rep = verify_equilibration(equilibrate(u, prob.f), prob.f)
                    worst_div = max(worst_div, rep.div_residual)
                    worst_jump = max(worst_jump, rep.jump_residual)
    ok = worst_div < 1e-10 and worst_jump < 1e-10
    _verdict(
        1,
        "equilibration exactness",
        ok,
        f"max div {worst_div:.2e}, max jump {worst_jump:.2e}",
    )


def test_criterion_02_hypercircle_identity(poly_k2_levels):
    """error^2 + distance^2 equals the bound^2 to relative round-off on
    every uniform level once the data projection is exact."""
    worst = max(
        abs((err**2 + dist**2) - bound**2) / bound**2
        for err, dist, bound, _ in poly_k2_levels
    )
    _verdict(2, "hypercircle identity", worst < 1e-10, f"max rel defect {worst:.2e}")


def test_criterion_03_constant_one_reliability(poly_k2_levels):
    """The elementwise indicator total bounds the energy error with
    constant one, and the efficiency index stays moderate."""
    reliable = all(err <= eta + 1e-10 for err, _, _, eta in poly_k2_levels)
    effs = [eta / err for err, _, _, eta in poly_k2_levels]
    eff_ok = all(1.0 <= e <= 20.0 for e in effs)
    _verdict(
        3,
        "constant-one reliability",
        reliable and eff_ok,
        f"efficiency in [{min(effs):.3f}, {max(effs):.3f}]",
    )


def test_criterion_04_polynomial_exactness():
    """With the polynomial solution inside the degree-4 space, the error
    and every estimator vanish to round-off on the initial mesh."""
    prob = get_problem("square_poly")
    space = FeSpace(prob.mesh_factory(), 4)
    u = solve_poisson(space, prob.f)
    rep = estimate(u, prob.f)
    vals = {
        "error": energy_error(u, prob.grad_exact),
        "eta_delta": rep.eta_delta_total,
        "eta_star": rep.eta_star_total,
        "eta_res": rep.eta_res_total,
        "osc": rep.osc_total,
    }
    worst = max(vals.values())
    ok = worst < 1e-9
    _verdict(4, "polynomial exactness", ok, f"max magnitude {worst:.2e}")


def test_criterion_05_convergence_rates(lshape_run):
    """Uniform refinement recovers the smooth rates, uniform refinement on
    the L-shape saturates at the corner-limited rate, and the adaptive
    loop restores the optimal rate while reaching 1e5 dofs.

    The uniform L-shape slope approaches its limit logarithmically slowly
    (the smooth part of the solution still decays at the faster rate on
    coarse meshes), so the fit uses the deepest four levels of a sequence
    that ends at 98304 elements."""
    detail = []

    sine = get_problem("square_sine")
    ok = True
    for degree, stop in ((1, 8192), (2, 4096)):
        mesh = sine.mesh_factory()
        dofs, errs = [], []
        while True:
            space = FeSpace(mesh, degree)
            u = solve_poisson(space, sine.f)
            dofs.append(space.n_dofs)
            errs.append(energy_error(u, sine.grad_exact))
            if mesh.n_triangles >= stop:
                break
            mesh = _uniform(mesh)
        rate = fit_rate(np.array(dofs), np.array(errs))
        ok &= abs(rate - degree / 2) <= 0.1
        detail.append(f"sine k={degree} rate {rate:.3f}")

    corner = get_problem("lshape_one")
    mesh = corner.mesh_factory()
    dofs, etas = [], []
    while True:
        space = FeSpace(mesh, 1)
        u = solve_poisson(space, corner.f)
        rep = estimate(u, corner.f)
        dofs.append(space.n_dofs)
        etas.append(rep.eta_delta_total)
        if mesh.n_triangles >= 98304:
            break
        mesh = _uniform(mesh)
    uni_rate = fit_rate(np.array(dofs), np.array(etas), tail=4)
    ok &= abs(uni_rate - 1 / 3) <= 0.05
    detail.append(f"L uniform rate {uni_rate:.3f}")

    result, _ = lshape_run
    ada_rate = result.rate("eta_delta")
    ok &= abs(ada_rate - 0.5) <= 0.1
    ok &= result.records[-1].n_dofs >= 100_000
    detail.append(
        f"L adaptive rate {ada_rate:.3f} at {result.records[-1].n_dofs} dofs"
    )
    _verdict(5, "convergence rates", ok, "; ".join(detail))


def test_criterion_06_equivalence_bracket(lshape_run):
    """Per vertex, the patchwise flux indicator and the weighted residual
    plus oscillation stay uniformly equivalent across the whole adaptive
    run, with a bracket that is stable over time."""
    result, brackets = lshape_run
    lo, hi, den_min = brackets.T
    assert len(lo) == len(result.records)
    assert (den_min > 0).all()
    c1, c2 = lo.min(), hi.max()
    half = len(lo) // 2
    c1a, c2a = lo[:half].min(), hi[:half].max()
    c1b, c2b = lo[half:].min(), hi[half:].max()
    drift = max(abs(c1b - c1a) / c1a, abs(c2b - c2a) / c2a)
    ok = c2 / c1 < 50.0 and drift <= 0.20
    _verdict(
        6,
        "equivalence bracket",
        ok,
        f"[{c1:.3f}, {c2:.3f}], spread {c2 / c1:.2f}, half drift {drift:.1%}",
    )


def test_criterion_07_oscillation_reduction():
    """With linear data at degree 1 the oscillation totals decay
    monotonically under adaptive refinement and the fitted reduction
    factor of the patch oscillation on refined subtrees is positive."""
    prob = get_problem("square_linear")
    lam2, prev = [], []

    def pair(state):
        if prev:
            lam2.append(check_hypotheses(prob, prev.pop(), state).lam2)
        prev.append(state)

    res = run(
        AfemConfig(
            problem="square_linear",
            degree=1,
            estimator="delta",
            theta=0.5,
            bisections="auto",
            max_dofs=4000,
            max_levels=30,
        ),
        pair,
    )
    osc = res.series("osc")
    osc_star = res.series("osc_star")
    monotone = bool((np.diff(osc) <= 1e-14).all() and (np.diff(osc_star) <= 1e-14).all())
    assert len(lam2) == len(res.records) - 1
    lam = min(lam2)
    ok = monotone and lam > 0.0
    _verdict(
        7,
        "oscillation reduction",
        ok,
        f"monotone {monotone}, min reduction factor {lam:.3f}",
    )


def test_criterion_08_doerfler_minimality():
    """Greedy bulk marking returns a set of exhaustively minimal
    cardinality for 1000 random indicator vectors."""
    rng = np.random.default_rng(20260823)
    masks = {
        n: ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)
        for n in range(1, 13)
    }
    popcount = {n: m.sum(axis=1) for n, m in masks.items()}
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        ind = rng.uniform(0.0, 1.0, n)
        theta = float(rng.uniform(0.05, 0.95))
        greedy = doerfler_mark(ind, theta)
        mass = masks[n] @ (ind**2)
        feasible = mass >= theta**2 * (ind**2).sum()
        minimal = int(popcount[n][feasible].min())
        mismatches += int(len(greedy) != minimal)
    _verdict(8, "bulk marking minimality", mismatches == 0, f"{mismatches} mismatches")


def test_criterion_09_interior_node_property():
    """After the automatic number of bisections every marked triangle
    gains a vertex in its interior and on each of its edges; a single
    bisection is not enough."""
    mesh = lshape()
    depth = interior_node_depth(mesh)
    rng = np.random.default_rng(424242)
    trials = [
        np.sort(
            rng.choice(mesh.n_triangles, size=int(rng.integers(1, 5)), replace=False)
        )
        for _ in range(20)
    ]

    def witnesses(marked, b):
        """Per marked triangle: (has interior vertex, all edges split)."""
        fine = bisect(mesh, marked, b)
        new_pts = fine.points[mesh.n_vertices :]
        out = []
        for t in marked:
            tri = mesh.points[mesh.triangles[t]]
            A = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
            lam = np.linalg.solve(A, (new_pts - tri[0]).T).T
            bc = np.column_stack([1 - lam.sum(axis=1), lam])
            inside = bool((bc.min(axis=1) > 1e-12).any())
            edges_ok = True
            for i in range(3):
                a, b2 = tri[i], tri[(i + 1) % 3]
                d = b2 - a
                rel = new_pts - a
                on = np.abs(d[0] * rel[:, 1] - d[1] * rel[:, 0]) < 1e-12
                tpar = rel @ d / (d @ d)
                edges_ok &= bool((on & (tpar > 1e-12) & (tpar < 1 - 1e-12)).any())
            out.append((inside, edges_ok))
        return out

    deep_ok = all(
        inside and edges
        for marked in trials
        for inside, edges in witnesses(marked, depth)
    )
    shallow_violates = any(
        not (inside and edges)
        for marked in trials
        for inside, edges in witnesses(marked, 1)
    )
    ok = deep_ok and shallow_violates
    _verdict(
        9,
        "interior node property",
        ok,
        f"depth {depth} always splits, depth 1 has counterexamples",
    )


def test_criterion_10_determinism(tmp_path):
    """Two runs of the command-line driver with the same configuration
    produce byte-identical run tables."""
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli_main(
            [
                "--problem",
                "lshape_one",
                "--degree",
                "1",
                "--estimator",
                "delta",
                "--theta",
                "0.5",
                "--bisections",
                "auto",
                "--max-dofs",
                "2000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append((out / "run.csv").read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _verdict(10, "determinism", ok, f"{len(outputs[0])} bytes identical")
