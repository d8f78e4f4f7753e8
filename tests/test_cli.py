"""Harness tests: file emission, determinism, option handling."""

import csv
import gc
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

import afemflux
from afemflux import cli
from afemflux.afem import AfemConfig, run
from afemflux.cli import _fmt, main, parse_config_file, write_level_indicators
from afemflux.equilibration import (
    _shape_blocks,
    gradient_flux,
    rt_dim,
)
from afemflux.mesh import Mesh


def run_cli(tmp_path, name, extra):
    out = tmp_path / name
    rc = main(["--problem", "square_sine", "--degree", "1",
               "--max-dofs", "400", "--out", str(out)] + extra)
    assert rc == 0
    return out


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestEmission:
    def test_standard_files(self, tmp_path, capsys):
        out = run_cli(tmp_path, "a", ["--hypotheses", "on"])
        for fname in ("run.csv", "timings.csv", "decay.dat", "schema.txt",
                      "hypotheses.csv", "elements_000.csv",
                      "vertices_000.csv"):
            assert (out / fname).exists(), fname
        rows = read_rows(out / "run.csv")
        assert len(rows) >= 2
        assert (out / f"elements_{len(rows)-1:03d}.csv").exists()
        text = capsys.readouterr().out
        assert "stopped:" in text

    def test_run_csv_is_parseable_and_consistent(self, tmp_path):
        out = run_cli(tmp_path, "b", [])
        rows = read_rows(out / "run.csv")
        for i, row in enumerate(rows):
            # one value per column, no more, no fewer
            assert None not in row and None not in row.values()
            assert int(row["level"]) == i
            assert row["wall_ms"] == "0"
            assert float(row["eta_delta"]) > 0
            assert float(row["energy_error"]) > 0  # sine has a closed form
            assert int(row["n_marked"]) >= 1 or i == len(rows) - 1
        eta = np.array([float(r["eta_delta"]) for r in rows])
        assert eta[-1] < eta[0]

    def test_schema_covers_all_columns(self, tmp_path):
        out = run_cli(tmp_path, "c", [])
        with open(out / "run.csv") as fh:
            header = fh.readline().strip().split(",")
        schema = (out / "schema.txt").read_text()
        for col in header:
            assert f"{col}:" in schema

    def test_decay_matches_run(self, tmp_path):
        out = run_cli(tmp_path, "d", [])
        rows = read_rows(out / "run.csv")
        decay = np.loadtxt(out / "decay.dat", comments="#")
        assert decay.shape[0] == len(rows)
        assert np.array_equal(decay[:, 0],
                              [float(r["n_dofs"]) for r in rows])
        assert np.allclose(decay[:, 1],
                           [float(r["eta_delta"]) for r in rows])

    def test_progress_line_prints_chosen_estimator(self, tmp_path, capsys):
        out = run_cli(tmp_path, "p", ["--estimator", "residual"])
        rows = read_rows(out / "run.csv")
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("level")]
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            printed = float(line.split("estimator")[1].split()[0])
            assert printed == pytest.approx(float(row["eta_res"]), rel=1e-6)
            assert printed != pytest.approx(float(row["eta_delta"]),
                                            rel=1e-3)

    def test_mesh_and_flux_exports(self, tmp_path):
        out = run_cli(tmp_path, "e", ["--export-mesh", "tri",
                                      "--export-flux"])
        mesh = Mesh.load_tri(out / "mesh_final.tri")
        rows = read_rows(out / "run.csv")
        assert mesh.n_triangles == int(rows[-1]["n_elements"])
        delta = np.loadtxt(out / "flux_delta.txt", skiprows=2)
        assert delta.shape[0] == mesh.n_triangles
        total = np.loadtxt(out / "flux_total.txt", skiprows=2)
        assert total.shape == delta.shape

    def test_flux_exports_match_eager_coefficients(self, tmp_path):
        # q_delta is formed on demand from the rotated coordinates; the
        # files hold what the eager formula gives, each element's own
        # L^-T times its class's rotation applied to them, written value
        # by value
        argv = ["--problem", "lshape_one", "--degree", "2",
                "--max-dofs", "600"]
        assert main(argv + ["--export-flux", "--out", str(tmp_path)]) == 0
        flux = run(AfemConfig(problem="lshape_one", degree=2,
                              max_dofs=600)).final.report.flux
        space = flux.u_h.space
        mesh = space.mesh
        first, cls = mesh.shape_classes[:2]
        assert first.size < mesh.n_triangles
        LiT = _shape_blocks(space, np.arange(mesh.n_triangles))["LiT"]
        Q = _shape_blocks(space, first)["Q"][cls]
        q = ((LiT @ Q) @ flux.w_delta[..., None])[..., 0]
        for name, coeffs in (("delta", q),
                             ("total", gradient_flux(flux.u_h).coeffs + q)):
            want = (f"# piecewise flux coefficients, degree 2\n"
                    f"{mesh.n_triangles} {rt_dim(2)}\n")
            want += "".join(" ".join(f"{float(v)!r}" for v in row) + "\n"
                            for row in coeffs)
            assert (tmp_path / f"flux_{name}.txt").read_text() == want, name

    def test_vtk_export(self, tmp_path):
        out = run_cli(tmp_path, "f", ["--export-mesh", "vtk"])
        head = (out / "mesh_final.vtk").read_text().splitlines()[0]
        assert head.startswith("# vtk DataFile")


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a = run_cli(tmp_path, "r1", ["--hypotheses", "on"])
        b = run_cli(tmp_path, "r2", ["--hypotheses", "on"])
        for fname in ("run.csv", "decay.dat", "hypotheses.csv",
                      "elements_001.csv", "vertices_001.csv"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes(), fname

    def test_level_indicators_match_per_value_formatting(self, tmp_path):
        levels = []

        def check(state):
            write_level_indicators(tmp_path, state)
            rep, i = state.report, state.record.level
            for name, head, cols in (
                    ("elements", "element,eta_delta,eta_res,osc",
                     (rep.eta_delta, rep.eta_res, rep.osc)),
                    ("vertices", "vertex,eta_star,eta_res_star,osc_star",
                     (rep.eta_star, rep.eta_res_star, rep.osc_star))):
                want = head + "\n" + "".join(
                    ",".join([str(j)] + [_fmt(c[j]) for c in cols]) + "\n"
                    for j in range(len(cols[0])))
                got = (tmp_path / f"{name}_{i:03d}.csv").read_bytes()
                assert got == want.encode(), (name, i)
            levels.append(i)

        run(AfemConfig(problem="lshape_one", degree=2, max_dofs=300), check)
        assert len(levels) >= 2 and levels == list(range(len(levels)))


class TestStreaming:
    def test_holds_one_level_between_callbacks(self, tmp_path, monkeypatch):
        # with --hypotheses on the CLI keeps a level for the next pair
        # check; once that check is made, the older level is gone
        real, refs = cli.run, []

        def spy(config, on_level):
            def wrapped(state):
                refs.append(weakref.ref(state.field))
                on_level(state)
                gc.collect()
                assert all(ref() is None for ref in refs[:-1]), len(refs)
            return real(config, wrapped)

        monkeypatch.setattr(cli, "run", spy)
        out = run_cli(tmp_path, "s", ["--hypotheses", "on",
                                      "--export-flux"])
        assert len(refs) == len(read_rows(out / "run.csv")) >= 3
        lines = (out / "hypotheses.csv").read_text().splitlines()
        assert len(lines) == 2 + len(refs) - 1  # j* line, header, pairs

    def test_energy_error_once_per_level(self, tmp_path, monkeypatch):
        # the hypothesis pairs read the coarse level's error from its
        # record, which its solve stored, and compute it no second time
        real, calls = afemflux.afem.energy_error, []
        monkeypatch.setattr(afemflux.afem, "energy_error",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        out = run_cli(tmp_path, "e", ["--hypotheses", "on"])
        rows = read_rows(out / "run.csv")
        assert len(rows) >= 3 and len(calls) == len(rows)
        pairs = (out / "hypotheses.csv").read_text().splitlines()[1:]
        for row, pair in zip(rows, csv.DictReader(pairs)):
            err, eta, osc = (float(row[name])
                             for name in ("energy_error", "eta_delta", "osc"))
            assert float(pair["h1"]) == err ** 2 / (eta ** 2 + osc ** 2)


class TestOptions:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta = 0.9\nmax-dofs = 300\n# comment\n"
                       "problem = square_sine\n")
        out = tmp_path / "g"
        rc = main(["--config", str(cfg), "--theta", "0.4",
                   "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "run.csv")
        assert float(rows[0]["theta"]) == 0.4  # flag beats config
        assert int(rows[-1]["n_dofs"]) >= 300

    def test_config_file_alone(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=square_poly\ndegree=2\nmax_dofs=200\n")
        out = tmp_path / "h"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "run.csv")
        assert float(rows[0]["theta"]) == 0.5  # untouched default

    def test_parse_config_rejects_unknown_keys(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("volume = 11\n")
        with pytest.raises(ValueError, match="unknown option"):
            parse_config_file(str(cfg))
        cfg.write_text("just a line\n")
        with pytest.raises(ValueError, match="key=value"):
            parse_config_file(str(cfg))

    def test_usage_errors_exit_2(self, tmp_path):
        for argv in (["--theta", "1.5"],
                     ["--bisections", "three"],
                     ["--problem", "not_a_problem"],
                     ["--config", str(tmp_path / "absent.cfg")]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out", str(tmp_path / "x")])
            assert exc.value.code == 2
        # config values take the checks of their flags
        for i, text in enumerate(["export_mesh = vtkk\n", "hypotheses = yes\n",
                                  "degree = 7\n", "export_flux = maybe\n"]):
            cfg = tmp_path / f"bad{i}.cfg"
            cfg.write_text(text)
            with pytest.raises(SystemExit) as exc:
                main(["--config", str(cfg), "--out", str(tmp_path / "x")])
            assert exc.value.code == 2

    def test_explicit_bisections(self, tmp_path):
        out = run_cli(tmp_path, "i", ["--bisections", "1"])
        rows = read_rows(out / "run.csv")
        assert all(r["b"] == "1" for r in rows)

    def test_module_invocation(self, tmp_path):
        # the child finds the package where this process found it, which
        # need not be on its own path
        src = os.path.dirname(os.path.dirname(afemflux.__file__))
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "afemflux.cli", "--help"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert "--estimator" in proc.stdout
