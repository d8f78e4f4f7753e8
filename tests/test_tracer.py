"""The benchmark tracer wraps module-level names of the adaptive loop; these
tests keep those names, and the loop's lookup of them at call time, intact
without running the benchmark."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from afemflux import estimators
from afemflux.afem import AfemConfig, run

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
