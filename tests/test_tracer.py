"""The benchmark tracer wraps module-level names of the adaptive loop; these
tests keep those names, and the loop's lookup of them at call time, intact
without running the benchmark."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from afemflux import afem, estimators
from afemflux.afem import AfemConfig, run
from afemflux.mesh import Mesh, Round

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
ESTIMATE_PARTS = ("equilibrate", "residual_indicators",
                  "patch_residual_indicators", "oscillation")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(tracer):
    for module, names in tracer.TRACED.items():
        for name in names:
            assert callable(getattr(module, name, None)), \
                f"{module.__name__}.{name}"


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

    def spy(mesh, *args, **kwargs):
        out = real(mesh, *args, **kwargs)
        calls.append((mesh, out))
        return out

    monkeypatch.setattr(afem, "bisect", spy)
    run(AfemConfig(problem="lshape_one", max_levels=2))
    assert len(calls) == 2
    for coarse, fine in calls:
        # `mesh.bisect_rounds` reads the level gain as the number of rounds
        nodes, m = 0, fine.source
        while m is not coarse:
            assert isinstance(m, Round)
            assert tracer.mesh_bytes(m) == 8 * m.n_triangles
            nodes, m = nodes + 1, m.source
        assert nodes > 0
        assert fine.level - coarse.level == nodes + 1
    final = calls[-1][1]
    chain, m = [], final.source
    while m is not None:
        chain.append(m)
        m = m.source
    assert sum(isinstance(m, Mesh) for m in chain) == 2
    assert tracer.lineage_bytes(final) == sum(map(tracer.mesh_bytes, chain))
