"""Adaptive versus uniform refinement at a re-entrant corner.

The L-shaped domain with constant load has a corner singularity that
limits uniform refinement to an energy-error decay of dofs^(-1/3).  The
adaptive loop (bulk marking on the equilibrated-flux indicator, newest-
vertex bisection deep enough to place interior nodes) restores the
optimal dofs^(-1/2) decay.  The script prints both histories and the
fitted rates, and can append the hypothesis diagnostics table that
tracks estimator reduction and stability between consecutive levels.

Run:
    python3 demos/corner_adaptivity.py --max-dofs 20000 --hypotheses
"""

import argparse

import numpy as np

from afemflux import (
    AfemConfig,
    FeSpace,
    bisect,
    check_hypotheses,
    estimate,
    fit_rate,
    get_problem,
    interior_node_depth,
    run,
    solve_poisson,
)


def uniform_history(max_elements):
    prob = get_problem("lshape_one")
    mesh = prob.mesh_factory()
    dofs, etas = [], []
    while True:
        space = FeSpace(mesh, 1)
        u = solve_poisson(space, prob.f)
        dofs.append(space.n_dofs)
        etas.append(estimate(u, prob.f).eta_delta_total)
        if mesh.n_triangles >= max_elements:
            break
        mesh = bisect(mesh, np.arange(mesh.n_triangles), 1)
    return np.array(dofs), np.array(etas)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--theta", type=float, default=0.5)
    ap.add_argument("--max-dofs", type=int, default=20_000)
    ap.add_argument("--uniform-elements", type=int, default=24_576)
    ap.add_argument("--hypotheses", action="store_true",
                    help="print the per-level diagnostics table")
    args = ap.parse_args(argv)

    prob = get_problem("lshape_one")
    rows, prev = [], []

    def check_pair(state):
        # the loop holds one level at a time: check each pair as it forms
        if prev:
            rows.append(check_hypotheses(prob, prev.pop(), state))
        prev.append(state)

    result = run(AfemConfig(problem=prob, degree=1, estimator="delta",
                            theta=args.theta, bisections="auto",
                            max_dofs=args.max_dofs, max_levels=40),
                 on_level=check_pair if args.hypotheses else None)
    print(f"adaptive: theta={args.theta} bisections={result.b} "
          f"stop={result.stop_reason}")
    print(f"{'level':>5} {'elems':>8} {'dofs':>8} {'eta_delta':>12} "
          f"{'eta_star':>12} {'osc':>12} {'marked':>7}")
    for r in result.records:
        print(f"{r.level:>5} {r.n_elements:>8} {r.n_dofs:>8} "
              f"{r.eta_delta:>12.4e} {r.eta_star:>12.4e} {r.osc:>12.4e} "
              f"{r.n_marked:>7}")
    ada_rate = result.rate("eta_delta")

    udofs, uetas = uniform_history(args.uniform_elements)
    uni_rate = fit_rate(udofs, uetas, tail=4)
    print(f"\nuniform:  eta ~ dofs^-{uni_rate:.3f}   "
          f"(last level {udofs[-1]} dofs, corner-limited toward 1/3)")
    print(f"adaptive: eta ~ dofs^-{ada_rate:.3f}   (optimal rate 1/2)")

    if args.hypotheses:
        j_star = interior_node_depth(prob.mesh_factory())
        print(f"\nhypothesis diagnostics (interior-node depth {j_star})")
        print("oscillation quotients print as -- when the load has no "
              "oscillation at all")
        print(f"{'pair':>7} {'h1':>8} {'h2':>8} {'h3':>8} {'h4':>8} "
              f"{'lam1':>8} {'lam2':>8}")

        def cell(v):
            return f"{v:>8.3f}" if np.isfinite(v) else f"{'--':>8}"

        for row in rows:
            cells = " ".join(
                cell(v)
                for v in (row.h1, row.h2, row.h3, row.h4, row.lam1, row.lam2)
            )
            print(f"{row.level_coarse:>3}-{row.level_fine:<3} {cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
