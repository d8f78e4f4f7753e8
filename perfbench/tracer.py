"""Spans around the module-level names the adaptive loop looks up.

The tracer replaces each name in TRACED by a wrapper that records a span
(name, start, end, parent, level) and calls the original.  The loop finds
the wrappers because it looks these names up in its own module at call
time, so the program itself is not changed.  All spans of one adaptive level
share its level id; spans of the hypothesis check share the id of the
coarse level of their pair.  Spans stay in memory until the run ends.

A name ending in `self_s` is a span's time minus the time of its child
spans.  MB is 2**20 bytes.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

from afemflux import afem, cli, estimators, galerkin, quadrature

TRACED = {
    afem: ("FeSpace", "solve_poisson", "estimate", "energy_error",
           "doerfler_mark", "bisect", "prolong", "energy_norm",
           "refined_set"),
    estimators: ("equilibrate", "residual_indicators",
                 "patch_residual_indicators", "oscillation",
                 "patch_oscillation"),
    galerkin: ("assemble_stiffness", "assemble_load"),
    cli: ("run", "check_hypotheses"),
}

# Spans whose self time is the loop's own glue, not a layer's work.
GLUE = ("afem.run", "cli.run")

MB = float(2 ** 20)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, level]
        self._stack: list[int] = []
        self._level = -1
        self._pair = -1
        # counters gathered at span exit; cheap, so they barely touch the
        # enclosing span's time
        self.flux_meshes = []
        self.patch_residuals = []
        self.bisections = []  # (level gain, triangles gained)
        self.solves = []  # SolveReport of each level
        self.marks = []  # (elements, marked)
        self.f_points = 0
        self.f_s = 0.0

    def install(self) -> None:
        for module, names in TRACED.items():
            short = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                fn = getattr(module, name)
                setattr(module, name, self.wrap(f"{short}.{name}", fn))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if name == "afem.FeSpace":
                self._level += 1
            elif name == "afem.prolong":
                self._pair += 1
                self._level = self._pair
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.observe(name, args, out)
            return out
        return traced

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._level])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def observe(self, name: str, args, out) -> None:
        if name == "estimators.equilibrate":
            self.flux_meshes.append(out.mesh)
            self.patch_residuals.append(out.patch_residuals)
        elif name == "afem.bisect":
            self.bisections.append((out.level - args[0].level,
                                    out.n_triangles - args[0].n_triangles))
        elif name == "afem.solve_poisson":
            self.solves.append(out.system.report)
        elif name == "afem.doerfler_mark":
            self.marks.append((len(args[0]), len(out)))

    def count_load(self, f):
        """Wrap a load f(x, y) to count its evaluation points and time."""
        def counted(x, y):
            t = time.perf_counter()
            v = f(x, y)
            self.f_s += time.perf_counter() - t
            self.f_points += int(np.size(x))
            return v
        return counted

    def span_totals(self):
        """Per span name: summed duration, summed self time, call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        dur, own, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            dur[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return dur, own, calls

    def metrics(self, wall_s: float, bytes_written: int) -> dict:
        """Per-layer metrics of the traced run; `wall_s` is its whole time."""
        dur, own, calls = self.span_totals()
        roots = sum(e - s for _, s, e, p, _ in self.spans if p < 0)
        glue = sum(own[name] for name in GLUE) + max(0.0, wall_s - roots)
        final = self.flux_meshes[-1]
        residuals = np.concatenate(self.patch_residuals)
        elements = sum(n for n, _ in self.marks)
        return {
            "equilibration.equilibrate_s": dur["estimators.equilibrate"],
            "equilibration.patches": int(residuals.size),
            "equilibration.patch_residual_max": float(residuals.max()),
            "equilibration.shape_share": shape_share(self.flux_meshes),
            "mesh.bisect_s": dur["afem.bisect"],
            "mesh.bisect_rounds": sum(b[0] for b in self.bisections),
            "mesh.triangles_created": sum(b[1] for b in self.bisections),
            "mesh.lineage_mb": lineage_bytes(final) / MB,
            "mesh.final_mb": mesh_bytes(final) / MB,
            "mesh.refined_set_s": dur["afem.refined_set"],
            "galerkin.space_s": dur["afem.FeSpace"],
            "galerkin.assemble_stiffness_s": dur["galerkin.assemble_stiffness"],
            "galerkin.assemble_load_s": dur["galerkin.assemble_load"],
            "galerkin.solve_self_s": own["afem.solve_poisson"],
            "galerkin.unknowns": sum(r.n_unknowns for r in self.solves),
            "galerkin.cg_iterations": sum(r.iterations for r in self.solves),
            "galerkin.solve_residual_max": max(r.residual
                                               for r in self.solves),
            "galerkin.energy_error_s": dur["afem.energy_error"],
            "galerkin.prolong_s": dur["afem.prolong"],
            "galerkin.energy_norm_s": dur["afem.energy_norm"],
            "estimators.estimate_self_s": own["afem.estimate"],
            "estimators.residual_indicators_s":
                dur["estimators.residual_indicators"],
            "estimators.patch_residual_indicators_s":
                dur["estimators.patch_residual_indicators"],
            "estimators.oscillation_s": dur["estimators.oscillation"],
            "estimators.oscillation_calls": calls["estimators.oscillation"],
            "estimators.patch_oscillation_self_s":
                own["estimators.patch_oscillation"],
            "afem.levels": len(self.solves),
            "afem.doerfler_mark_s": dur["afem.doerfler_mark"],
            "afem.marked_share": sum(m for _, m in self.marks) / elements,
            "afem.check_hypotheses_self_s": own["cli.check_hypotheses"],
            "cli.write_s": own["cli.main"],
            "cli.bytes_written": bytes_written,
            "quadrature.triangle_rule_misses":
                quadrature.triangle_rule.cache_info().misses,
            "quadrature.edge_rule_misses":
                quadrature.edge_rule.cache_info().misses,
            "problems.f_points": self.f_points,
            "problems.f_s": self.f_s,
            "trace.wall_s": wall_s,
            "trace.layer_share": 1.0 - glue / wall_s,
        }


def shape_share(meshes) -> float:
    """Share of elements whose edge vectors divided by sqrt(area), rounded
    to 1e-9, repeat an earlier element of the same mesh."""
    repeats = total = 0
    for m in meshes:
        p = m.points[m.triangles]
        edges = np.concatenate([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1],
                                p[:, 0] - p[:, 2]], axis=1)
        keys = np.round(edges / np.sqrt(m.areas)[:, None] / 1e-9)
        repeats += m.n_triangles - len(np.unique(keys.astype(np.int64),
                                                 axis=0))
        total += m.n_triangles
    return repeats / total


def mesh_bytes(mesh) -> int:
    """Bytes of the arrays a mesh holds, its cached tables included."""
    arrays = {}
    for value in vars(mesh).values():
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                arrays[id(a)] = a.nbytes
    return sum(arrays.values())


def lineage_bytes(mesh) -> int:
    """Bytes of the arrays of every mesh reachable through `source`."""
    total = 0
    m = mesh.source
    while m is not None:
        total += mesh_bytes(m)
        m = m.source
    return total
