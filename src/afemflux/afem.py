"""Adaptive solve-estimate-mark-refine driver.

Runs the loop

    solve -> estimate -> mark (bulk criterion) -> refine (b bisections)

on a registered or user-supplied problem, records one convergence row per
level and holds one level at a time: an `on_level` callback sees each
level's state as it finishes.  `check_hypotheses` evaluates, for a pair of
consecutive levels, the localisation hypotheses that justify starwise
marking: equivalence of error and estimator up to oscillation on the full
mesh (H1, H2) and on the refined subsets (H3, H4), plus the
oscillation-control ratios (lambda1, lambda2).

The bulk criterion marks the smallest set M, filling with the largest
indicators first, such that sum_{T in M} eta_T^2 >= theta^2 sum_T eta_T^2.
The refinement depth b defaults to the interior-node depth j* of the
initial mesh, the number of bisections after which every refined element
contains interior nodes in its volume and on its edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np

from .equilibration import ElementBlocks
from .estimators import EstimatorReport, estimate
from .galerkin import (
    FeSpace,
    ScalarField,
    energy_error,
    energy_norm,
    load_values,
    prolong,
    solve_poisson,
)
from .mesh import Mesh, bisect, interior_node_depth, refined_set
from .problems import ProblemSpec, get_problem


def doerfler_mark(indicators: np.ndarray, theta: float) -> np.ndarray:
    """Smallest index set holding a theta^2 share of the squared indicators.

    Ties are resolved by taking lower element ids first, and so are near
    ties: in the descending order of the squares a new tie group starts
    wherever the gap to the next value exceeds 1e-10 of the larger one, and
    each group is taken in element-id order, so that round-off in the
    indicators does not decide which of two equal elements is marked.  The
    count is taken from the exact values in that order.  The returned ids
    are sorted ascending.  The set is empty only when every indicator is
    zero.
    """
    ind = np.asarray(indicators, dtype=np.float64)
    if ind.ndim != 1:
        raise ValueError("indicators must be a 1-d array")
    bad = np.flatnonzero(~np.isfinite(ind))
    if bad.size:
        raise ValueError(f"indicator of element {bad[0]} is {ind[bad[0]]}, "
                         "not finite")
    if ind.size and float(ind.min()) < 0:
        raise ValueError("indicators must be nonnegative")
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    sq = ind * ind
    total = float(sq.sum())
    if total == 0.0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-sq, kind="stable")
    s = sq[order]
    gap = s[:-1] - s[1:] > 1e-10 * s[:-1]
    group = np.cumsum(np.concatenate([[True], gap]))
    order = order[np.lexsort((order, group))]
    csum = np.cumsum(sq[order])
    nsel = int(np.searchsorted(csum, theta * theta * total, side="left")) + 1
    nsel = min(nsel, ind.size)
    return np.sort(order[:nsel])


# the ConvergenceRecord field that holds each estimator family's total
_TOTALS = {"delta": "eta_delta", "star": "eta_star",
           "residual": "eta_res", "residual_star": "eta_res_star"}


@dataclass(frozen=True)
class AfemConfig:
    problem: str | ProblemSpec = "lshape_one"
    degree: int = 1
    estimator: str = "delta"  # delta | star | residual | residual_star
    theta: float = 0.5
    bisections: int | str = "auto"  # "auto" -> interior-node depth j*
    max_dofs: int = 10_000
    max_levels: int = 40
    estimator_floor: Optional[float] = None  # None -> 1e-9 * (1 + max |f|)

    def resolve_problem(self) -> ProblemSpec:
        if isinstance(self.problem, ProblemSpec):
            return self.problem
        return get_problem(self.problem)


@dataclass(frozen=True)
class ConvergenceRecord:
    level: int
    n_elements: int
    n_dofs: int
    energy_error: float  # nan without a closed-form solution
    eta_delta: float
    eta_star: float  # element-major double-count total
    eta_star_single: float
    eta_res: float
    eta_res_star: float
    osc: float
    osc_star: float
    n_marked: int
    theta: float
    b: int


@dataclass(frozen=True)
class LevelState:
    mesh: Mesh = dc_field(repr=False)
    field: ScalarField = dc_field(repr=False)
    report: EstimatorReport = dc_field(repr=False)
    marked: np.ndarray = dc_field(repr=False)
    record: ConvergenceRecord


def fit_rate(n_dofs: Sequence[float], values: Sequence[float],
             tail: Optional[int] = None) -> float:
    """Least-squares slope s in value ~ C n^(-s) over the last `tail` rows.

    Uses the finite, positive entries; returns nan when fewer than two
    remain.  tail defaults to half the rows, at least three.
    """
    n = np.asarray(n_dofs, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    good = np.isfinite(v) & (v > 0) & (n > 0)
    n, v = n[good], v[good]
    if tail is None:
        tail = max(3, n.size // 2)
    n, v = n[-tail:], v[-tail:]
    if n.size < 2 or np.unique(n).size < 2:
        return float("nan")
    slope = np.polyfit(np.log(n), np.log(v), 1)[0]
    return float(-slope)


@dataclass(frozen=True)
class RunResult:
    problem: ProblemSpec
    config: AfemConfig
    records: list[ConvergenceRecord]
    final: LevelState
    stop_reason: str
    b: int

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def rate(self, name: str = "eta_delta",
             tail: Optional[int] = None) -> float:
        """Decay rate of a recorded series against the dof count."""
        return fit_rate(self.series("n_dofs"), self.series(name), tail)


def _solve_level(prob: ProblemSpec, config: AfemConfig, mesh: Mesh,
                 level: int, b: int, cache: ElementBlocks) -> LevelState:
    space = FeSpace(mesh, config.degree)
    u = solve_poisson(space, prob.f)
    rep = estimate(u, prob.f, cache=cache)
    err = energy_error(u, prob.grad_exact) if prob.has_exact \
        else float("nan")
    marked = doerfler_mark(rep.indicator(config.estimator), config.theta)
    return LevelState(mesh, u, rep, marked, ConvergenceRecord(
        level=level, n_elements=mesh.n_triangles, n_dofs=space.n_dofs,
        energy_error=err, eta_delta=rep.eta_delta_total,
        eta_star=rep.eta_star_total, eta_star_single=rep.eta_star_single,
        eta_res=rep.eta_res_total, eta_res_star=rep.eta_res_star_total,
        osc=rep.osc_total, osc_star=rep.osc_star_total,
        n_marked=marked.size, theta=config.theta, b=b,
    ))


def run(config: AfemConfig,
        on_level: Optional[Callable[[LevelState], None]] = None
        ) -> RunResult:
    """Run the adaptive loop; `on_level(state)`, if given, sees each level
    after marking, before the loop stops or refines."""
    prob = config.resolve_problem()
    if config.estimator not in _TOTALS:
        raise ValueError(f"unknown estimator family {config.estimator!r}")
    if not 0.0 < config.theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {config.theta}")
    if config.max_levels < 0:
        raise ValueError(f"max_levels must be >= 0, got {config.max_levels}")
    mesh = prob.mesh_factory()
    if config.bisections == "auto":
        b = interior_node_depth(mesh)
    else:
        b = int(config.bisections)
        if b < 1:
            raise ValueError("bisections must be >= 1")

    floor = config.estimator_floor
    if floor is None:
        fmax = float(np.abs(load_values(prob.f, mesh.centroids)).max())
        floor = 1e-9 * (1.0 + fmax)

    records: list[ConvergenceRecord] = []
    stop = "max_levels"
    # element-class blocks, built once per run and kept while in use
    cache = ElementBlocks()
    for level in range(config.max_levels + 1):
        state = _solve_level(prob, config, mesh, level, b, cache)
        rec = state.record
        records.append(rec)
        if on_level is not None:
            on_level(state)

        total = getattr(rec, _TOTALS[config.estimator])
        if total <= floor or rec.n_marked == 0:
            stop = "estimator_floor"
            break
        if rec.n_dofs >= config.max_dofs:
            stop = "max_dofs"
            break
        if level == config.max_levels:
            break
        mesh = bisect(mesh, state.marked, b)
        state = None  # release this level before solving the next

    return RunResult(prob, config, records, state, stop, b)


# -- hypothesis diagnostics ---------------------------------------------


@dataclass(frozen=True)
class HypothesisRow:
    """Localisation ratios for one pair of consecutive levels.

    h1, h2 compare error and estimator on the coarse mesh (with exact
    error; nan without one).  h3, h4 compare the level-to-level energy
    difference with the estimator restricted to refined subsets: the
    denominator of h3 uses the once-refined set, the oscillation terms and
    h4 use the j*-refined set.  lam1, lam2 measure how much of the
    oscillation the refinement removed, relative to the refined-set
    oscillation (elementwise and patchwise element-major forms).  Ratios
    are nan when their denominator vanishes.
    """

    level_coarse: int
    level_fine: int
    h1: float
    h2: float
    h3: float
    h4: float
    lam1: float
    lam2: float


def _ratio(num: float, den: float) -> float:
    if den == 0.0 or not math.isfinite(den):
        return float("nan")
    return num / den


def check_hypotheses(problem: ProblemSpec, coarse: LevelState,
                     fine: LevelState) -> HypothesisRow:
    """Evaluate the localisation ratios between two consecutive levels."""
    j_star = interior_node_depth(coarse.mesh.root())
    rep_c, rep_f = coarse.report, fine.report
    diff = energy_norm(fine.field - prolong(coarse.field, fine.field.space))

    r1 = refined_set(coarse.mesh, fine.mesh, 1)
    rj = refined_set(coarse.mesh, fine.mesh, j_star)

    eta_c = rep_c.eta_delta_total
    osc_c, osc_f = rep_c.osc_total, rep_f.osc_total
    oscs_c, oscs_f = rep_c.osc_star_total, rep_f.osc_star_total
    if problem.has_exact:
        err_c = coarse.record.energy_error  # stored by the level's solve
        h1 = _ratio(err_c ** 2, eta_c ** 2 + osc_c ** 2)
        h2 = _ratio(eta_c ** 2, err_c ** 2 + osc_c ** 2)
    else:
        h1 = h2 = float("nan")

    osc_rj = rep_c.restricted_osc(rj)
    h3 = _ratio(diff ** 2, rep_c.restricted(r1) ** 2 + osc_rj ** 2)
    h4 = _ratio(rep_c.restricted(rj) ** 2, diff ** 2 + osc_rj ** 2)

    lam1 = _ratio(osc_c ** 2 - osc_f ** 2, rep_c.restricted_osc(r1) ** 2)
    lam2 = _ratio(oscs_c ** 2 - oscs_f ** 2,
                  rep_c.restricted_osc_star(rj) ** 2)
    return HypothesisRow(coarse.record.level, fine.record.level,
                         h1, h2, h3, h4, lam1, lam2)
