"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_bench.py -q

Runs run.py on shrunken workloads and checks that every metric is printed
with its unit, that a corrupted reference value is reported as a failure,
and that the jittered mesh has only positive areas.
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

SEED = 3
TINY = {
    "lshape_p1": {"max_dofs": 150},
    "square_p3": {"max_dofs": 300},
    "jitter_p2": {"jitter_triangles": 64, "estimator_floor": 3e-2},
}


def tiny_reference(workload: str) -> dict:
    res, err = run.spawn(workload, SEED, 0, time.perf_counter() + 120,
                         json.dumps(TINY[workload]))
    assert res is not None, err
    key = str(SEED) if workload in run.SEEDED else "any"
    return {workload: {key: res["records"]}}


def bench(workload: str, trace: int, reference: dict, tmp_path):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "0", "--trace",
         str(trace), "--params", json.dumps(TINY[workload]), "--reference",
         str(path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace, tmp_path):
    lines, out = bench(workload, trace, tiny_reference(workload), tmp_path)
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float))
               for v in out["metrics"].values())
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 3
    table = {tuple(line.split()[:2]) for line in lines}
    assert all((name, unit) in table for name, unit in units.items())
    if trace:
        assert all((name, unit) in table
                   for name, unit in run.PRINTED_UNITS.items())


@pytest.mark.parametrize("field", ["n_marked", "eta_star"])
def test_corrupted_reference_is_a_failure(field, tmp_path):
    reference = tiny_reference("square_p3")
    level = reference["square_p3"]["any"][-1]
    if isinstance(level[field], int):
        level[field] += 1
    else:
        level[field] *= 1.0 + 1e-8
    lines, out = bench("square_p3", 0, reference, tmp_path)
    assert not out["correct"]
    assert out["failed"] == out["attempted"] >= 1
    assert any(field in line for line in lines if "failed" in line)


def test_times_are_scaled_to_the_reference_speed():
    at_ref = {"wall_s": 2.0, "setup_s": 0.5, "peak_rss_mb": 10.0,
              "tick_s": run.REF_TICK_S, "setup_tick_s": run.REF_TICK_S,
              "records": [{"n_dofs": 100}]}
    # the same run with its set-up at a third and its run at half the speed
    slow = dict(at_ref, wall_s=4.0, setup_s=1.5,
                tick_s=2 * run.REF_TICK_S, setup_tick_s=3 * run.REF_TICK_S)
    for sample in (at_ref, slow):
        e2e, measured = run.summarise({"samples": [sample], "ran": [sample]})
        assert e2e["wall_s"]["median"] == pytest.approx(2.0)
        assert e2e["setup_s"]["median"] == pytest.approx(0.5)
        assert e2e["dofs_per_s"]["median"] == pytest.approx(50.0)
        assert measured["measured.wall_s"]["median"] == sample["wall_s"]


def test_jittered_mesh_has_positive_areas():
    import numpy as np
    import workloads
    from afemflux.mesh import bisect, unit_square_crisscross

    for n, depth in ((64, 4), (8192, 11)):
        plain = bisect(unit_square_crisscross(), np.arange(4), depth)
        for seed in range(6):
            mesh = workloads.jittered_mesh(n, 0.2, seed)
            assert (mesh.signed_areas > 0).all()
            move = np.hypot(*(mesh.points - plain.points).T)
            assert (move[plain.boundary_vertex] == 0).all()
            assert 0 < move.max() <= 0.2 * plain.edge_lengths.min()

