"""Smoke tests of the scripts in demos/: each `main(argv)` runs clean at a
small size and prints what its docstring promises."""

import importlib.util
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def load(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_guaranteed_bound(capsys):
    demo = load("guaranteed_bound")
    assert demo.main(["--max-elements", "256"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "problem=square_poly degree=2"
    rows = [[float(v) for v in line.split()] for line in lines[2:]]
    assert [r[0] for r in rows] == [4, 8, 16, 32, 64, 128, 256]
    # polynomial data: the bound holds with constant one, and the
    # hypercircle identity to round-off
    assert all(r[4] >= 1.0 and r[5] < 1e-12 for r in rows)


def test_corner_adaptivity(capsys):
    demo = load("corner_adaptivity")
    assert demo.main(["--max-dofs", "400", "--uniform-elements", "384",
                      "--hypotheses"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("adaptive: theta=0.5")
    assert "adaptive: eta ~ dofs^-" in out
    assert "hypothesis diagnostics" in out
