"""Exit codes, overrides, and artifacts of the command-line interface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gowave
from gowave import fileio
from gowave.cli import main
from gowave.harness import ExperimentConfig, GeometrySpec, config_lines
from gowave.wave import ModelGrid


@pytest.fixture()
def tiny_cfg_file(tmp_path):
    cfg = ExperimentConfig(
        nx=20, ny=20, h=8000.0, nt=50, boundary_width=8,
        geometry=GeometrySpec(kind="uniform", n_sources=2, n_receivers=8),
        sigma=0.05, budget=15, optimizers=("gogn",))
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(config_lines(cfg)) + "\n")
    return path


def test_compare_writes_artifacts(tiny_cfg_file, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", "--config", str(tiny_cfg_file), "--out", str(out),
                 "--threads", "2"])
    assert code == 0
    assert (out / "gogn_trace.csv").exists()
    assert "threads = 2" in (out / "manifest.cfg").read_text().splitlines()
    assert "gogn:" in capsys.readouterr().out


def test_invert_selects_single_optimizer(tiny_cfg_file, tmp_path):
    out = tmp_path / "inv"
    code = main(["invert", "--config", str(tiny_cfg_file), "--out", str(out),
                 "--optimizer", "nlcg", "--budget", "12"])
    assert code == 0
    assert (out / "nlcg_trace.csv").exists()
    assert not (out / "gogn_trace.csv").exists()
    records = fileio.read_trace_csv(out / "nlcg_trace.csv")
    for rec in records[:-1]:
        assert rec.solves < 12


def test_make_data_writes_observations(tiny_cfg_file, tmp_path):
    out = tmp_path / "data"
    code = main(["make-data", "--config", str(tiny_cfg_file),
                 "--out", str(out), "--sigma", "0.0"])
    assert code == 0
    assert (out / "obs_src000.seis").exists()
    assert (out / "obs_src001.seis").exists()
    assert (out / "target.modl").exists()
    assert (out / "geometry.txt").exists()
    manifest = (out / "manifest.cfg").read_text()
    assert "sigma = 0.0" in manifest


def test_seed_override_changes_noise(tiny_cfg_file, tmp_path):
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    for out, seed in ((out_a, "1"), (out_b, "2"), (out_c, "1")):
        assert main(["make-data", "--config", str(tiny_cfg_file),
                     "--out", str(out), "--seed", seed]) == 0
    obs_a = (out_a / "obs_src000.seis").read_bytes()
    obs_b = (out_b / "obs_src000.seis").read_bytes()
    obs_c = (out_c / "obs_src000.seis").read_bytes()
    assert obs_a != obs_b
    assert obs_a == obs_c


def test_render_roundtrip_and_default_name(tmp_path):
    grid = tmp_path / "m.modl"
    fileio.write_model(grid, ModelGrid(np.zeros(18 * 18), 18, 18))
    assert main(["render", str(grid), "0.05",
                 "--out", str(tmp_path / "m.pgm")]) == 0
    raw = (tmp_path / "m.pgm").read_bytes()
    assert raw.startswith(b"P5\n18 18\n255\n")
    assert set(raw.split(b"\n", 3)[3]) == {128}
    assert main(["render", str(grid), "0.05"]) == 0
    assert (tmp_path / "m.pgm").exists()


def test_config_errors_exit_2(tmp_path):
    code = main(["compare", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[grid]\nnx = tiny\n")
    assert main(["compare", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    # rejected before any solve: the output directory is never made
    for text in ("[linesearch]\nstep_cap = 0.0\n",
                 "[linesearch]\nmax_iters = 3\nquad_interp_phase = 5\n",
                 "[run]\noptimizers = gogn,gogn\n"):
        bad.write_text(text)
        assert main(["compare", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert main(["render", str(tmp_path / "nothing.modl"), "0.05"]) == 2
    junk = tmp_path / "junk.modl"
    junk.write_bytes(b"JUNKJUNKJUNK")
    assert main(["render", str(junk), "0.05"]) == 2
    # a range that is not finite would render every pixel black
    grid = tmp_path / "m.modl"
    fileio.write_model(grid, ModelGrid(np.zeros(20 * 20), 20, 20))
    for vrange in ("nan", "inf"):
        assert main(["render", str(grid), vrange]) == 2
    assert not (tmp_path / "m.pgm").exists()


def test_bad_numbers_exit_2_before_any_solve(tiny_cfg_file, tmp_path,
                                             monkeypatch):
    from gowave import harness

    solves = []
    monkeypatch.setattr(harness, "forward_solve",
                        lambda *args, **kw: solves.append(args))
    out = tmp_path / "o"
    assert main(["compare", "--config", str(tiny_cfg_file), "--out", str(out),
                 "--sigma", "nan"]) == 2
    assert main(["compare", "--config", str(tiny_cfg_file), "--out", str(out),
                 "--seed", "-1"]) == 2
    base = tiny_cfg_file.read_text()
    bad = tmp_path / "bad.cfg"
    for old, new in (("sigma = 0.05", "sigma = nan"),
                     ("lam = auto", "lam = nan"),
                     ("seed = 11", "seed = -1"),
                     ("c0 = 3150.0", "c0 = 0.0"),
                     ("c0 = 3150.0", "c0 = -3150.0")):
        assert old in base
        bad.write_text(base.replace(old, new))
        assert main(["compare", "--config", str(bad), "--out", str(out)]) == 2
    assert solves == []
    assert not (out / "gogn_trace.csv").exists()


def test_inadmissible_physics_exits_2_before_any_solve(tiny_cfg_file, tmp_path,
                                                      monkeypatch):
    from gowave import harness

    solves = []
    monkeypatch.setattr(harness, "forward_solve",
                        lambda *args, **kw: solves.append(args))
    out = tmp_path / "o"
    base = tiny_cfg_file.read_text()
    bad = tmp_path / "bad.cfg"
    # manifests no longer write the retired amplitude; only 1.0 would load
    retired = [("[source]", f"[source]\namplitude = {raw}")
               for raw in ("0.0", "-0.0", "-1.0", "2.0", "1e300")]
    # dt = 100000 would keep 4.4 GB per field; it is only validated
    for old, new in retired + [("boundary_strength = 0.25", "boundary_strength = -5.0"),
                               ("dt = 1.0", "dt = 100000.0"),
                               ("dt = 1.0", "dt = 1e-300"),
                               ("frequency = 0.1", "frequency = 1e300")]:
        assert old in base
        bad.write_text(base.replace(old, new))
        for cmd in ("compare", "make-data"):
            assert main([cmd, "--config", str(bad), "--out", str(out)]) == 2
    assert solves == []
    assert not (out / "gogn_trace.csv").exists()


def test_bad_arguments_exit_2(tiny_cfg_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--config", str(tiny_cfg_file),
              "--out", str(tmp_path / "o"), "--optimizer", "adam"])
    assert exc.value.code == 2


def test_all_failures_exit_3(tiny_cfg_file, tmp_path, monkeypatch):
    from gowave import harness

    def explode(exp, name):
        raise RuntimeError("diverged")

    monkeypatch.setattr(harness, "run_one", explode)
    code = main(["invert", "--config", str(tiny_cfg_file),
                 "--out", str(tmp_path / "o"), "--optimizer", "gogn"])
    assert code == 3


def probe_cfg_file(tmp_path, optimizers):
    # 20 x 20, two sources, 8 receivers, budget 20, and a lam inside the
    # float64 range whose curvature model is not
    cfg = ExperimentConfig(
        nx=20, ny=20, h=8000.0, nt=50, boundary_width=8,
        geometry=GeometrySpec(kind="uniform", n_sources=2, n_receivers=8),
        budget=20, lam="1e150", optimizers=optimizers)
    path = tmp_path / "probe.cfg"
    path.write_text("\n".join(config_lines(cfg)) + "\n")
    return path


def test_curvature_overflow_fails_gncg_and_exits_3(tmp_path):
    # gncg's power iteration overflowed to a zero estimate and raised
    # ZeroDivisionError, a traceback
    out = tmp_path / "o"
    path = probe_cfg_file(tmp_path, ("gncg",))
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 3
    assert re.search(r"gncg_status = failed \(RuntimeError: .*\[regularizer\] lam",
                     (out / "manifest.cfg").read_text())


def test_printed_solves_match_the_manifest(tmp_path, capsys):
    # each run stalls after spending its linesearch trials: the line used to
    # print the solves at the last record, 4, and the manifest the total, 24
    out = tmp_path / "o"
    path = probe_cfg_file(tmp_path, ("gogn", "nlcg", "lbfgs"))
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
    printed = dict(re.findall(r"(\w+): stalled after 0 iterations, (\d+) solves",
                              capsys.readouterr().out))
    manifest = dict(re.findall(r"^(gogn|nlcg|lbfgs)_solves = (\d+)$",
                               (out / "manifest.cfg").read_text(), re.M))
    assert printed == manifest and len(printed) == 3
    assert printed["gogn"] != "4"


def test_residual_overflow_fails_gogn_and_exits_3(tiny_cfg_file, tmp_path):
    # sigma = 1e300 overflows the weighted residual and its square outside
    # the march: the adjoint's guard must end the run, with no numpy warning
    out = tmp_path / "o"
    assert main(["compare", "--config", str(tiny_cfg_file), "--out", str(out),
                 "--sigma", "1e300", "--budget", "20"]) == 3
    assert "gogn_status = failed (SolverBlowupError" in (out / "manifest.cfg").read_text()


def test_installed_entry_point(tmp_path):
    grid = tmp_path / "m.modl"
    fileio.write_model(grid, ModelGrid(np.zeros(18 * 18), 18, 18))
    # the child imports the same gowave as this suite, installed or not
    path = [str(Path(gowave.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "gowave.cli", "render", str(grid), "0.05"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert (tmp_path / "m.pgm").exists()
