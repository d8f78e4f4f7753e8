"""Workload definitions: inputs for one adaptive run each.

Imported by the sample process after the set-up clock has started, because
building a workload (numpy, scipy, afemflux, the initial mesh) is part of
the set-up time every process pays.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os

import numpy as np

from afemflux import afem, cli, problems
from afemflux.galerkin import reference_element
from afemflux.mesh import Mesh, bisect, unit_square_crisscross

# Parameters of each workload; a self-test may override any of them to run
# the same code at a tiny size.
PARAMS = {
    # The paper's corner-singularity run through the user's entry point:
    # deep grading, file writes, hypothesis checks that read lineage.
    "lshape_p1": {"kind": "cli", "problem": "lshape_one", "degree": 1,
                  "max_dofs": 8_000},
    # Uniform refinement (theta = 1) at high degree: the largest patch
    # systems and factorisations, almost no refinement work.
    "square_p3": {"kind": "run", "problem": "square_sine", "degree": 3,
                  "theta": 1.0, "bisections": 2, "estimator_floor": 1e-6,
                  "max_dofs": 18_000},
    # Seeded vertex jitter: no two elements share a shape, so a cache keyed
    # by element shape is bypassed.
    "jitter_p2": {"kind": "run", "problem": "square_sine", "degree": 2,
                  "theta": 0.5, "bisections": 1, "estimator_floor": 4e-4,
                  "max_dofs": 10**9, "jitter_triangles": 8_192,
                  "jitter_scale": 0.2},
}


def jittered_mesh(n_triangles: int, scale: float, seed: int) -> Mesh:
    """Crisscross unit square bisected uniformly to `n_triangles`, with every
    interior vertex moved by a seeded offset of length at most
    scale * h_min, drawn uniformly from that disc."""
    base = unit_square_crisscross()
    depth = int(np.log2(n_triangles // base.n_triangles))
    if base.n_triangles << depth != n_triangles:
        raise ValueError(f"{n_triangles} is not 4 * 2**j triangles")
    fine = bisect(base, np.arange(base.n_triangles), depth)
    rng = np.random.default_rng(seed)
    nv = fine.n_vertices
    radius = scale * float(fine.edge_lengths.min()) * np.sqrt(rng.random(nv))
    angle = 2.0 * np.pi * rng.random(nv)
    offset = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    offset[fine.boundary_vertex] = 0.0
    # a fresh root: the jittered mesh carries no refinement lineage
    return Mesh(fine.points + offset, fine.triangles)


@dataclasses.dataclass
class Job:
    """One workload, built and ready to run.

    `spec` is the problem the run will use; a tracer may replace it with a
    copy whose load counts its evaluations before calling `invoke`.
    """

    params: dict
    spec: problems.ProblemSpec
    out_dir: str

    def invoke(self, spec: problems.ProblemSpec):
        p = self.params
        if p["kind"] == "cli":
            problems.REGISTRY[spec.name] = spec
            argv = ["--problem", spec.name, "--degree", str(p["degree"]),
                    "--max-dofs", str(p["max_dofs"]), "--hypotheses", "on",
                    "--export-mesh", "vtk", "--out", self.out_dir]
            with open(os.devnull, "w") as sink, \
                    contextlib.redirect_stdout(sink):
                return cli.main(argv)
        config = afem.AfemConfig(
            problem=spec, degree=p["degree"], theta=p["theta"],
            bisections=p["bisections"], max_dofs=p["max_dofs"],
            estimator_floor=p["estimator_floor"])
        return afem.run(config)

    def records(self, result) -> list[dict]:
        """Per-level convergence records of a finished run."""
        if self.params["kind"] == "cli":
            with open(os.path.join(self.out_dir, "run.csv")) as fh:
                head, *rows = [line.rstrip("\n").split(",") for line in fh]
            return [{k: (int(v) if k in _INT_FIELDS else float(v))
                     for k, v in zip(head, row) if k in _FIELDS}
                    for row in rows]
        return [{k: getattr(r, k) for k in _FIELDS} for r in result.records]

    def bytes_written(self) -> int:
        if not os.path.isdir(self.out_dir):
            return 0
        return sum(e.stat().st_size for e in os.scandir(self.out_dir))


_INT_FIELDS = ("level", "n_elements", "n_dofs", "n_marked")
_FIELDS = _INT_FIELDS + ("energy_error", "eta_delta", "eta_star", "eta_res",
                         "osc")


def build(params: dict, seed: int, out_dir: str) -> Job:
    """Build a workload's problem and initial mesh, and load the reference
    element of its degree."""
    spec = problems.get_problem(params["problem"])
    if "jitter_triangles" in params:
        mesh = jittered_mesh(params["jitter_triangles"],
                             params["jitter_scale"], seed)
        spec = dataclasses.replace(spec, name=f"{spec.name}_jitter",
                                   description="jittered " + spec.description,
                                   mesh_factory=lambda: mesh)
    reference_element(params["degree"])
    return Job(params, spec, out_dir)
