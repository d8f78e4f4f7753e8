"""Command line harness for adaptive runs.

Writes a fixed set of files into the output directory:

  run.csv         one row per adaptive level (schema in schema.txt); the
                  wall_ms column is always 0 so that identical inputs give
                  byte-identical output, real timings go to timings.csv
  timings.csv     wall-clock timings of the harness phases, milliseconds;
                  adaptive_run includes the per-level writes and checks,
                  hypotheses is the summed time of the pair checks
  decay.dat       n_dofs and estimator totals, whitespace separated, for
                  quick plotting
  schema.txt      column documentation for run.csv
  elements_NNN.csv / vertices_NNN.csv
                  per-level local indicators (element and vertex families),
                  written as each level finishes
  hypotheses.csv  localisation ratios between consecutive levels (with
                  --hypotheses on), checked as the finer level finishes
  mesh_final.tri / mesh_final.vtk, flux_delta.txt / flux_total.txt
                  optional exports of the final level

A key=value config file can preset any option, its values checked as the
flags' values are; explicit flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from .afem import _TOTALS, AfemConfig, check_hypotheses, run
from .mesh import interior_node_depth
from .problems import REGISTRY

_RUN_COLUMNS = [
    "level", "n_elements", "n_dofs", "energy_error", "eta_delta",
    "eta_star", "eta_star_singlecount", "eta_res", "eta_res_patch",
    "osc", "osc_star", "n_marked", "theta", "b", "wall_ms",
]

_SCHEMA_NOTES = {
    "level": "adaptive loop index, starting at 0",
    "n_elements": "triangles in the level mesh",
    "n_dofs": "dimension of the finite element space",
    "energy_error": "energy norm error against the exact solution, "
                    "nan when no closed form is registered",
    "eta_delta": "guaranteed elementwise flux estimator, total",
    "eta_star": "starwise flux estimator, element-major double-count total",
    "eta_star_singlecount": "starwise flux estimator, plain root sum "
                            "of squares over vertices",
    "eta_res": "classical residual estimator, total",
    "eta_res_patch": "hat-weighted patchwise residual estimator, "
                     "double-count total",
    "osc": "elementwise data oscillation, total",
    "osc_star": "patchwise data oscillation, double-count total",
    "n_marked": "elements selected by the bulk criterion",
    "theta": "bulk marking parameter",
    "b": "bisections applied to each marked element",
    "wall_ms": "always 0; see timings.csv for real timings",
}

# the AfemConfig fields that an option sets, with their defaults
_CONFIG = {f.name: f.default for f in dataclasses.fields(AfemConfig)
           if f.name != "estimator_floor"}

_DEFAULTS = {
    **_CONFIG,
    "out": "afem_out",
    "export_mesh": "none",
    "export_flux": False,
    "hypotheses": "off",
}

# config-file spellings of the --export-flux switch
_SWITCH = {"1": True, "true": True, "yes": True, "on": True,
           "0": False, "false": False, "no": False, "off": False}


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="afemflux",
        description="adaptive Poisson solver with equilibrated flux "
                    "error control")
    p.add_argument("--problem", choices=sorted(REGISTRY),
                   help="registered model problem")
    p.add_argument("--degree", type=int, choices=[1, 2, 3, 4],
                   help="polynomial degree of the trial space")
    p.add_argument("--estimator", choices=list(_TOTALS),
                   help="indicator family driving the marking")
    p.add_argument("--theta", type=float,
                   help="bulk marking parameter in (0, 1]")
    p.add_argument("--bisections",
                   help="bisections per marked element, or 'auto' for the "
                        "interior-node depth of the initial mesh")
    p.add_argument("--max-dofs", type=int, dest="max_dofs",
                   help="stop once the space reaches this many unknowns")
    p.add_argument("--max-levels", type=int, dest="max_levels",
                   help="maximum number of adaptive levels")
    p.add_argument("--out", help="output directory")
    p.add_argument("--export-mesh", choices=["none", "tri", "vtk"],
                   dest="export_mesh", help="write the final mesh")
    p.add_argument("--export-flux", action="store_true", default=None,
                   dest="export_flux",
                   help="write the reconstructed flux of the final level")
    p.add_argument("--hypotheses", choices=["on", "off"],
                   help="evaluate localisation ratios between levels")
    p.add_argument("--config",
                   help="key=value file supplying defaults for any option")
    return p


def parse_config_file(path: str) -> dict:
    """The options a key=value file presets, each value parsed and checked
    by its flag's type and choices."""
    argv = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, "
                                 f"got {raw.strip()!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            flag = "--" + key.replace("_", "-")
            if key != "export_flux":
                argv.append(f"{flag}={value}")
            elif value.lower() not in _SWITCH:
                raise ValueError(f"{path}:{lineno}: {key} must be one of "
                                 f"{', '.join(_SWITCH)}, got {value!r}")
            elif _SWITCH[value.lower()]:
                argv.append(flag)
    parser = build_parser()
    parser.exit_on_error = False
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as err:
        raise ValueError(f"{path}: {err}") from err
    return {key: value for key, value in vars(args).items()
            if key in _DEFAULTS and value is not None}


def _merge_options(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config:
        cfg.update(parse_config_file(args.config))
    for key in _DEFAULTS:
        cli_val = getattr(args, key)
        if cli_val is not None:
            cfg[key] = cli_val
    return cfg


def write_run_csv(path, records) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(_RUN_COLUMNS) + "\n")
        for r in records:
            # the record's fields in their order, then wall_ms
            row = [*map(_fmt, dataclasses.astuple(r)), "0"]
            fh.write(",".join(row) + "\n")


def write_schema(path) -> None:
    with open(path, "w") as fh:
        fh.write("run.csv columns, in order\n\n")
        for name in _RUN_COLUMNS:
            fh.write(f"{name}: {_SCHEMA_NOTES[name]}\n")


def write_decay(path, records, estimator: str) -> None:
    key = _TOTALS[estimator]
    with open(path, "w") as fh:
        fh.write(f"# n_dofs {key} energy_error\n")
        for r in records:
            fh.write(f"{r.n_dofs} {_fmt(getattr(r, key))} "
                     f"{_fmt(r.energy_error)}\n")


def _indexed_csv(header: str, *columns) -> str:
    """The header line, then `i,a[i],b[i],...` for each index i, every
    value formatted as `_fmt` formats it."""
    values = (map(repr, np.asarray(c).tolist()) for c in columns)
    rows = zip(map(str, range(len(columns[0]))), *values)
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def write_level_indicators(outdir, state) -> None:
    rep, i = state.report, state.record.level
    with open(os.path.join(outdir, f"elements_{i:03d}.csv"), "w") as fh:
        fh.write(_indexed_csv("element,eta_delta,eta_res,osc",
                              rep.eta_delta, rep.eta_res, rep.osc))
    with open(os.path.join(outdir, f"vertices_{i:03d}.csv"), "w") as fh:
        fh.write(_indexed_csv("vertex,eta_star,eta_res_star,osc_star",
                              rep.eta_star, rep.eta_res_star, rep.osc_star))


def write_hypotheses(path, rows, j_star: int) -> None:
    with open(path, "w") as fh:
        fh.write(f"# j_star = {j_star}\n")
        fh.write("level_coarse,level_fine,h1,h2,h3,h4,lam1,lam2\n")
        for row in rows:
            fh.write(f"{row.level_coarse},{row.level_fine},"
                     f"{_fmt(row.h1)},{_fmt(row.h2)},{_fmt(row.h3)},"
                     f"{_fmt(row.h4)},{_fmt(row.lam1)},{_fmt(row.lam2)}\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merge_options(args)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))

    if opts["bisections"] != "auto":
        try:
            opts["bisections"] = int(opts["bisections"])
        except ValueError:
            parser.error(f"--bisections must be an integer or 'auto', "
                         f"got {opts['bisections']!r}")

    config = AfemConfig(**{key: opts[key] for key in _CONFIG})

    outdir = opts["out"]
    os.makedirs(outdir, exist_ok=True)
    hypotheses = opts["hypotheses"] == "on"
    rows, prev, hyp_ms = [], None, 0.0

    def on_level(state):
        nonlocal prev, hyp_ms
        write_level_indicators(outdir, state)
        if hypotheses:
            if prev is not None:
                th = time.perf_counter()
                rows.append(check_hypotheses(prob, prev, state))
                hyp_ms += (time.perf_counter() - th) * 1e3
            prev = state

    t0 = time.perf_counter()
    try:
        prob = config.resolve_problem()
        result = run(config, on_level)
    except ValueError as exc:
        parser.error(str(exc))
    timings = [("adaptive_run", (time.perf_counter() - t0) * 1e3)]
    if hypotheses:
        timings.append(("hypotheses", hyp_ms))

    total = _TOTALS[opts["estimator"]]
    for r in result.records:
        print(f"level {r.level:3d}  elements {r.n_elements:7d}  "
              f"dofs {r.n_dofs:7d}  estimator {getattr(r, total):.6e}  "
              f"marked {r.n_marked}")
    print(f"stopped: {result.stop_reason} after {len(result.records)} levels "
          f"(b={result.b})")

    write_run_csv(os.path.join(outdir, "run.csv"), result.records)
    write_schema(os.path.join(outdir, "schema.txt"))
    write_decay(os.path.join(outdir, "decay.dat"), result.records,
                opts["estimator"])
    final = result.final
    if rows:
        write_hypotheses(os.path.join(outdir, "hypotheses.csv"), rows,
                         interior_node_depth(final.mesh.root()))

    te = time.perf_counter()
    if opts["export_mesh"] == "tri":
        final.mesh.save_tri(os.path.join(outdir, "mesh_final.tri"))
    elif opts["export_mesh"] == "vtk":
        final.mesh.save_vtk(os.path.join(outdir, "mesh_final.vtk"))
    if opts["export_flux"]:
        flux = final.report.flux
        flux.q_delta.save_txt(os.path.join(outdir, "flux_delta.txt"))
        flux.total_flux().save_txt(os.path.join(outdir, "flux_total.txt"))
    timings.append(("exports", (time.perf_counter() - te) * 1e3))
    timings.append(("total", (time.perf_counter() - t0) * 1e3))

    with open(os.path.join(outdir, "timings.csv"), "w") as fh:
        fh.write("phase,wall_ms\n")
        for name, ms in timings:
            fh.write(f"{name},{ms:.3f}\n")

    print(f"wrote {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
