"""The benchmark tracer wraps module-level names of the adaptive loop; these
tests keep those names, and the loop's lookup of them at call time, intact
without running the benchmark."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from afemflux import afem, cli, estimators
from afemflux.afem import AfemConfig, run
from afemflux.mesh import Link
from test_mesh import lineage, reference_bisect

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
ESTIMATE_PARTS = ("equilibrate", "residual_indicators",
                  "patch_residual_indicators", "oscillation")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names():
    """(module, name) of each name in the tracer's TRACED, read from its
    syntax tree without running it: a key is an afemflux module."""
    tree = ast.parse(TRACER.read_text(), str(TRACER))
    traced = next(node.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["TRACED"])
    return [(key.id, name.value)
            for key, names in zip(traced.keys, traced.values)
            for name in names.elts]


def test_every_traced_name_exists():
    pairs = traced_names()
    assert len(pairs) >= 10
    missing = [f"{module}.{name}" for module, name in pairs
               if not callable(getattr(importlib.import_module(
                   f"afemflux.{module}"), name, None))]
    assert not missing, f"traced names the package lacks: {missing}"


def test_loop_calls_estimate_parts_once_per_level(tracer, monkeypatch):
    assert set(ESTIMATE_PARTS) <= set(tracer.TRACED[estimators])
    calls = Counter()
    for name in ESTIMATE_PARTS:
        real = getattr(estimators, name)

        def spy(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(estimators, name, spy)
    result = run(AfemConfig(problem="square_sine", max_levels=1))
    assert len(result.records) == 2
    assert calls == {name: 2 for name in ESTIMATE_PARTS}


def test_lineage_walks_cover_the_bisect_chain(tracer, monkeypatch):
    calls = []
    real = afem.bisect

    def spy(mesh, marked, b):
        out = real(mesh, marked, b)
        calls.append((mesh, out, reference_bisect(mesh, marked, b)))
        return out

    monkeypatch.setattr(afem, "bisect", spy)
    run(AfemConfig(problem="lshape_one", max_levels=2))
    assert len(calls) == 2
    for coarse, fine, ref in calls:
        # one link per call, whose level gain `mesh.bisect_rounds` reads
        # as the call's closure rounds: one mesh per round of the reference
        assert fine.source is coarse.link
        assert tracer.mesh_bytes(coarse.link) == 8 * coarse.n_triangles
        assert fine.level - coarse.level == len(lineage(ref, coarse)) >= 1
    final = calls[-1][1]
    chain, m = [], final.source
    while m is not None:
        chain.append(m)
        m = m.source
    assert len(chain) == len(calls)
    assert all(isinstance(m, Link) for m in chain)
    assert tracer.lineage_bytes(final) == sum(map(tracer.mesh_bytes, chain))


def test_cli_calls_run_once_and_checks_each_pair(tracer, tmp_path,
                                                 monkeypatch):
    # the spans on cli.run and cli.check_hypotheses wrap the whole loop and
    # each pair check only if the CLI looks both names up in its module
    assert {"run", "check_hypotheses"} <= set(tracer.TRACED[cli])
    calls, results = Counter(), []
    for name in ("run", "check_hypotheses"):
        real = getattr(cli, name)

        def spy(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            out = real(*args, **kwargs)
            if name == "run":
                results.append(out)
            return out

        monkeypatch.setattr(cli, name, spy)
    assert cli.main(["--problem", "square_sine", "--max-dofs", "300",
                     "--hypotheses", "on", "--out", str(tmp_path)]) == 0
    n_levels = len(results[0].records)
    assert n_levels >= 3
    assert calls == {"run": 1, "check_hypotheses": n_levels - 1}
