"""Adaptive finite elements with guaranteed error bounds via flux equilibration.

The package solves the Poisson problem with piecewise-polynomial finite
elements, reconstructs an equilibrated flux patch by patch, and turns the
flux into error indicators with a reliability constant of one.  An
adaptive loop (solve, estimate, mark, refine) drives the mesh, and a
command-line harness exports the convergence history.

Typical use::

    from afemflux import AfemConfig, run

    result = run(AfemConfig(problem="lshape_one", max_dofs=10_000))
    print(result.rate("eta_delta"))
"""

from .afem import (
    AfemConfig,
    ConvergenceRecord,
    HypothesisRow,
    LevelState,
    RunResult,
    check_hypotheses,
    doerfler_mark,
    fit_rate,
    run,
)
from .equilibration import (
    EquilibratedFlux,
    EquilibrationReport,
    FluxField,
    PatchOperators,
    equilibrate,
    gradient_flux,
    prager_synge_terms,
    verify_equilibration,
)
from .estimators import (
    EstimatorReport,
    estimate,
    oscillation,
    patch_oscillation,
    patch_residual_indicators,
    residual_indicators,
)
from .galerkin import (
    FeSpace,
    ScalarField,
    SolveReport,
    energy_error,
    energy_norm,
    solve_poisson,
)
from .mesh import (
    Mesh,
    bisect,
    conformity_check,
    interior_node_depth,
    lshape,
    refined_set,
    unit_square_crisscross,
)
from .problems import ProblemSpec, get_problem, register_problem

__all__ = [
    "AfemConfig",
    "ConvergenceRecord",
    "EquilibratedFlux",
    "EquilibrationReport",
    "EstimatorReport",
    "FeSpace",
    "FluxField",
    "HypothesisRow",
    "LevelState",
    "Mesh",
    "PatchOperators",
    "ProblemSpec",
    "RunResult",
    "ScalarField",
    "SolveReport",
    "bisect",
    "check_hypotheses",
    "conformity_check",
    "doerfler_mark",
    "energy_error",
    "energy_norm",
    "equilibrate",
    "estimate",
    "fit_rate",
    "get_problem",
    "gradient_flux",
    "interior_node_depth",
    "lshape",
    "oscillation",
    "patch_oscillation",
    "patch_residual_indicators",
    "prager_synge_terms",
    "refined_set",
    "register_problem",
    "residual_indicators",
    "run",
    "solve_poisson",
    "unit_square_crisscross",
    "verify_equilibration",
]
