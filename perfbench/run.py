"""Benchmark of the adaptive loop: time to a certified error bound.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or `all` to run each in turn.  Each workload runs
as a closed loop: one client, one adaptive run at a time, each sample in a
fresh process (sample.py) with BLAS pinned to one thread, so set-up is
timed once per sample.  Samples are started while the measured time fits in
S seconds, at least MIN_SAMPLES; each metric is the median over samples.

Times are given in reference seconds.  The CPU speed a shared host gives the
benchmark drifts by tens of percent over seconds to minutes, so each sample
process times a short fixed loop every 0.1 s all through its life
(sample.SpeedProbe).  A sample's set-up and wall times, less the loop's own
time, are each scaled by REF_TICK_S over the loop's mean time within them:
the time they would have taken at the speed at which the loop takes
REF_TICK_S.  The measured times and the loop's time are printed and stored
beside them.

Every sample's records are checked outside the timed region against the
stored reference (reference.json): per-level element, dof and marked counts
exactly, estimator totals to 1e-10 relative, and, where the problem has an
exact solution, the guaranteed bound energy_error <= eta_delta + osc at
every level.  Seeded workloads have stored references for the seeds
make_reference.py wrote; at other seeds they are checked for the bound
only.  Every sample, the traced one too, must repeat the first sample's
records exactly.  A sample that fails to run or fails a check counts in
`failed`; a sample that ran is timed either way.

With --trace 1 the first sample is traced (tracer.py) and must reproduce the
untraced records exactly; the per-layer metrics come from it and the
tracing overhead is its wall time minus the untraced median, both in
reference seconds.

The last line of output is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics of BENCHMARK.json, or with --trace 1 its
per-layer metrics).  Full results, spans included, are written to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SAMPLE = os.path.join(HERE, "sample.py")

WORKLOADS = ("lshape_p1", "square_p3", "jitter_p2")
MIN_SAMPLES = 3
# time of a tick of sample.SpeedProbe at the reference speed: about its
# median on the 2-vCPU Intel Xeon VM the benchmark was tuned on, so that
# there a reference second is close to a measured second
REF_TICK_S = 0.002
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
# inputs that depend on the seed; the others ignore it
SEEDED = ("jitter_p2",)
# problems with an exact solution, where the guaranteed bound is checked
GUARANTEED = ("square_p3", "jitter_p2")
COUNTS = ("n_elements", "n_dofs", "n_marked")
TOTALS = ("eta_delta", "eta_star", "eta_res", "osc")
RTOL = 1e-10
# units of the numbers that are printed but are not in BENCHMARK.json: the
# measured times the end-to-end metrics are scaled from, and per-layer
# numbers that are zero on some workloads or signed
PRINTED_UNITS = {"measured.wall_s": "s", "measured.setup_s": "s",
                 "measured.dofs_per_s": "1/s", "measured.tick_s": "s",
                 "mesh.refined_set_s": "s", "galerkin.energy_error_s": "s",
                 "galerkin.prolong_s": "s", "galerkin.energy_norm_s": "s",
                 "galerkin.cg_iterations": "count",
                 "afem.check_hypotheses_self_s": "s", "cli.write_s": "s",
                 "cli.bytes_written": "B", "trace.overhead_s": "s"}


def spawn(workload: str, seed: int, trace: int, deadline: float,
          params: str | None, tag: str = ""):
    """Run sample.py once; returns (result dict or None, error text)."""
    cmd = [sys.executable, SAMPLE, "--workload", workload, "--seed",
           str(seed), "--trace", str(trace), "--out-dir",
           os.path.join(OUT, f"{workload}-{os.getpid()}{tag}")]
    if params:
        cmd += ["--params", params]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        return None, "no time left before the deadline"
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **BLAS_ENV},
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"exit {proc.returncode}: " + " | ".join(tail)
    return json.loads(lines[-1]), ""


def check(records: list, reference: list | None, guarantee: bool) -> list:
    """Differences of a sample's records from the reference, and levels
    where the guaranteed bound fails."""
    bad = []
    if reference is not None:
        if len(records) != len(reference):
            bad.append(f"{len(records)} levels, reference has "
                       f"{len(reference)}")
        for got, want in zip(records, reference):
            lvl = want["level"]
            for key in COUNTS:
                if got[key] != want[key]:
                    bad.append(f"level {lvl} {key} {got[key]} != {want[key]}")
            for key in TOTALS:
                if not abs(got[key] - want[key]) <= RTOL * abs(want[key]):
                    bad.append(f"level {lvl} {key} {got[key]!r} != "
                               f"{want[key]!r}")
    if guarantee:
        for r in records:
            if not r["energy_error"] <= r["eta_delta"] + r["osc"]:
                bad.append(f"level {r['level']} energy_error "
                           f"{r['energy_error']!r} > eta_delta + osc")
    return bad


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_sha() -> str | None:
    """The checkout's git commit, or None outside a repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(workload: str, seed: int, seconds: float, trace: int,
            params: str | None, reference: dict, deadline: float) -> dict:
    """Samples of one workload; with trace the first sample is traced."""
    key = str(seed) if workload in SEEDED else "any"
    ref = reference.get(workload, {}).get(key)
    guarantee = workload in GUARANTEED
    ran, samples, errors, durations = [], [], [], []
    traced = first = env = None
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if len(durations) >= MIN_SAMPLES + trace and \
                now - start + statistics.median(durations) > seconds:
            break
        if now + max(durations, default=0.0) > deadline:
            break
        tracing = trace if not durations else 0
        res, err = spawn(workload, seed, tracing, deadline, params,
                         tag=f"-s{len(durations)}")
        durations.append(time.perf_counter() - now)
        if res is None:
            errors.append(err)
            continue
        bad = check(res["records"], ref, guarantee)
        records = json.dumps(res["records"])
        if first is None:
            first = records
        elif records != first:
            bad.append("records differ from the first sample's")
        if bad:
            errors.append("; ".join(bad[:5]))
        ran.append(res)
        env = res["env"]
        if tracing:
            traced = res
        else:
            samples.append(res)
    return {"ran": ran, "samples": samples, "errors": errors,
            "traced": traced, "env": env, "reference": ref is not None,
            "attempted": len(durations)}


def wall_ref(sample: dict) -> float:
    """A sample's wall time in reference seconds."""
    return sample["wall_s"] * REF_TICK_S / sample["tick_s"]


def summarise(m: dict) -> tuple:
    """End-to-end metrics of a measurement, and the measured values they
    were scaled from: (median, q1, q3, n) each."""
    samples = m["samples"]
    dofs = [sum(r["n_dofs"] for r in s["records"]) for s in samples]
    per_sample = {
        "wall_s": [wall_ref(s) for s in samples],
        "setup_s": [s["setup_s"] * REF_TICK_S / s["setup_tick_s"]
                    for s in m["ran"]],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "dofs_per_s": [n / wall_ref(s) for n, s in zip(dofs, samples)],
    }
    measured = {
        "measured.wall_s": [s["wall_s"] for s in samples],
        "measured.setup_s": [s["setup_s"] for s in m["ran"]],
        "measured.dofs_per_s": [n / s["wall_s"]
                                for n, s in zip(dofs, samples)],
        "measured.tick_s": [s["tick_s"] for s in samples],
    }
    return stats(per_sample), stats(measured)


def stats(per_sample: dict) -> dict:
    out = {}
    for name, values in per_sample.items():
        q1, q2, q3 = quartiles(values)
        out[name] = {"median": q2, "q1": q1, "q3": q3, "n": len(values)}
    return out


def run_workload(workload: str, args, bench: dict, reference: dict,
                 identity: dict, deadline: float) -> dict:
    m = measure(workload, args.seed, args.seconds, args.trace, args.params,
                reference, deadline)
    print(f"# workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"params {args.params or 'default'}")
    print("# " + "  ".join(f"{k}={v}" for k, v in
                          {**identity, **(m["env"] or {})}.items()))
    print("# reference: " + ("stored" if m["reference"] else
                             "none stored for this seed; samples must "
                             "repeat the first"))
    for err in m["errors"]:
        print(f"# failed sample: {err}")
    failed = len(m["errors"])
    result = {"workload": workload, "seed": args.seed, "trace": args.trace,
              "params": args.params, **identity, "env": m["env"],
              "attempted": m["attempted"], "failed": failed,
              "errors": m["errors"],
              "samples": [{k: s[k] for k in ("setup_s", "setup_tick_s",
                                             "wall_s", "tick_s", "cpu_s",
                                             "peak_rss_mb")}
                          for s in m["ran"]],
              "records": m["samples"][0]["records"] if m["samples"] else None}
    if not m["samples"]:
        raise RuntimeError(f"{workload}: no sample ran to the end")
    e2e, measured = summarise(m)
    units = {e["name"]: e["unit"] for e in bench["end_to_end"]}
    printed = {**units, **PRINTED_UNITS}
    print(f"{'metric':<34} {'unit':<6} {'median':>14} {'iqr':>12} {'n':>3}")
    for name, s in {**e2e, **measured}.items():
        print(f"{name:<34} {printed[name]:<6} {s['median']:>14.6g} "
              f"{s['q3'] - s['q1']:>12.4g} {s['n']:>3}")
    print(f"{'fail_rate':<34} {'share':<6} "
          f"{failed / m['attempted']:>14.6g} {'':>12} {m['attempted']:>3}")
    result["end_to_end"] = e2e
    result["measured"] = measured
    metrics = {name: {"value": e2e[name]["median"], "unit": units[name]}
               for name in units}
    if args.trace:
        if m["traced"] is None:
            raise RuntimeError(f"{workload}: the traced sample failed")
        layers = dict(m["traced"]["layers"])
        layers["trace.overhead_s"] = (wall_ref(m["traced"])
                                      - e2e["wall_s"]["median"])
        units = {e["name"]: e["unit"] for e in bench["per_layer"]}
        printed = {**PRINTED_UNITS, **units}
        print(f"# per layer, traced sample (measured wall_s "
              f"{m['traced']['wall_s']:.4g} s)")
        for name, value in layers.items():
            print(f"{name:<42} {printed[name]:<6} {value:>14.6g}")
        result["layers"] = layers
        result["spans"] = m["traced"]["spans"]
        metrics = {name: {"value": layers[name], "unit": units[name]}
                   for name in units}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload}-seed{args.seed}-trace"
                             f"{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh)
    print(f"# full result: {os.path.relpath(path, ROOT)}")
    return {"attempted": m["attempted"], "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload; default run_seconds")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--params", help=argparse.SUPPRESS)  # self-test sizes
    p.add_argument("--reference", help=argparse.SUPPRESS)  # self-test file
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    with open(args.reference or os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    identity = {"git_sha": git_sha()}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(
                name, args, bench, reference, identity,
                time.perf_counter() + DEADLINE_S)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}/{k}": v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
