"""The benchmark's output check, run as a test: each benchmark workload at
seed 0, built by perfbench/workloads.py, must reproduce the records stored
in perfbench/reference.json (counts exactly, totals to the benchmark's
relative tolerance) and, where the problem has an exact solution, keep the
guaranteed bound.  A change that the benchmark would refuse fails here.

The benchmark files are read, never imported, so that no bytecode is
written next to them."""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str) -> types.ModuleType:
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look it up
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def bench():
    reference = json.loads((BENCH / "reference.json").read_text())
    return _load("workloads"), _load("run"), reference


@pytest.mark.parametrize("workload", ["lshape_p1", "square_p3", "jitter_p2"])
def test_seed_zero_matches_stored_reference(bench, workload, tmp_path):
    workloads, run, reference = bench
    job = workloads.build(dict(workloads.PARAMS[workload]), 0, str(tmp_path))
    records = job.records(job.invoke(job.spec))
    key = "0" if workload in run.SEEDED else "any"
    bad = run.check(records, reference[workload][key],
                    workload in run.GUARANTEED)
    assert not bad, bad[:5]
