"""Config handling, geometry/target synthesis, and comparison-run contracts."""

import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gowave import fileio, harness
from gowave.harness import (ConfigError, ExperimentConfig, GeometrySpec,
                            TargetSpec, config_lines, gen_geometry, gen_target,
                            load_config, prepare_experiment, run_comparison)
from gowave.wave import ModelGrid

EXTENT = (500e3, 500e3)


def tiny_config(**overrides):
    base = dict(
        nx=20, ny=20, h=8000.0, nt=50, boundary_width=8,
        geometry=GeometrySpec(kind="uniform", n_sources=2, n_receivers=8),
        sigma=0.05, budget=20,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_serialization_round_trip(self, tmp_path):
        cfg = ExperimentConfig()
        path = tmp_path / "exp.cfg"
        path.write_text("\n".join(config_lines(cfg)) + "\n")
        assert load_config(path) == cfg

    def test_round_trip_preserves_overrides(self, tmp_path):
        cfg = ExperimentConfig(
            nx=48, ny=40, h=7812.5, sigma=0.25, noise_seed=7,
            geometry=GeometrySpec(kind="clustered", n_sources=5,
                                  n_receivers=120, seed=3, augment_to=9),
            target=TargetSpec(kind="disks", cap=0.03),
            lam="0.5", optimizers=("gogn", "gncg"), budget=42)
        path = tmp_path / "exp.cfg"
        path.write_text("\n".join(config_lines(cfg)) + "\n")
        assert load_config(path) == cfg

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_unknown_section_and_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[physics]\nc = 3e8\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path)
        path.write_text("[grid]\nnz = 10\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_bad_values_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[grid]\nnx = many\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(path)
        path.write_text("[run]\noptimizers = gogn,adam\n")
        with pytest.raises(ConfigError, match="unknown optimizers"):
            load_config(path)
        path.write_text("[data]\nsigma = -0.1\n")
        with pytest.raises(ConfigError, match="non-negative"):
            load_config(path)
        path.write_text("[regularizer]\nlam = strong\n")
        with pytest.raises(ConfigError, match="'auto' or a number"):
            load_config(path)

    def test_manifest_sections_ignored(self, tmp_path):
        path = tmp_path / "manifest.cfg"
        path.write_text("[grid]\nnx = 32\n\n[derived]\nlam = 3.0\n"
                        "[results]\ngogn_status = budget\n")
        cfg = load_config(path)
        assert cfg.nx == 32
        assert cfg.lam == "auto"

    def test_validation_catches_semantic_errors(self):
        with pytest.raises(ConfigError, match="geometry kind"):
            ExperimentConfig(geometry=GeometrySpec(kind="ring")).validate()
        with pytest.raises(ConfigError, match="needs a file"):
            ExperimentConfig(geometry=GeometrySpec(kind="from-file")).validate()
        with pytest.raises(ConfigError, match="at least one source"):
            ExperimentConfig(geometry=GeometrySpec(n_sources=0)).validate()
        with pytest.raises(ConfigError, match="at least one receiver"):
            ExperimentConfig(geometry=GeometrySpec(n_receivers=0)).validate()
        with pytest.raises(ConfigError, match="target kind"):
            ExperimentConfig(target=TargetSpec(kind="ring")).validate()
        with pytest.raises(ConfigError, match="target kind from-file needs a file"):
            ExperimentConfig(target=TargetSpec(kind="from-file")).validate()
        with pytest.raises(ConfigError, match="cap"):
            ExperimentConfig(target=TargetSpec(cap=1.5)).validate()
        with pytest.raises(ConfigError, match="budget"):
            ExperimentConfig(budget=0).validate()
        with pytest.raises(ConfigError, match="must be positive"):
            ExperimentConfig(lam="-2").validate()
        with pytest.raises(ConfigError, match="step_cap"):
            ExperimentConfig(ls_step_cap=0.0).validate()
        with pytest.raises(ConfigError, match="repeated optimizers"):
            ExperimentConfig(optimizers=("gogn", "gogn")).validate()
        for frequency in (0.0, -0.1):
            with pytest.raises(ConfigError, match="source.frequency"):
                ExperimentConfig(frequency=frequency).validate()

    def test_random_configs_round_trip_bytewise(self, tmp_path):
        rng = random.Random(10)
        path = tmp_path / "exp.cfg"
        for _ in range(200):
            cfg = random_config(rng)
            text = "\n".join(config_lines(cfg)) + "\n"
            path.write_text(text)
            loaded = load_config(path)
            assert loaded == cfg
            assert "\n".join(config_lines(loaded)) + "\n" == text

    def test_bad_numbers_name_their_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        section = None
        for line in config_lines(ExperimentConfig()):
            if line.startswith("["):
                section = line[1:-1]
                continue
            if not line:
                continue
            key, value = line.split(" = ")
            if value.isdigit():
                bad = ("many", "2.5")
            elif "." in value or value == "auto":
                bad = ("nan", "inf", "-inf")
            else:
                continue
            for raw in bad:
                path.write_text(f"[{section}]\n{key} = {raw}\n")
                with pytest.raises(ConfigError,
                                   match=re.escape(f"{section}.{key}")):
                    load_config(path)

    def test_negative_seeds_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for section in ("geometry", "data"):
            path.write_text(f"[{section}]\nseed = -1\n")
            with pytest.raises(ConfigError, match=f"{section}.seed"):
                load_config(path)
        with pytest.raises(ConfigError, match="data.seed"):
            ExperimentConfig(noise_seed=-1).validate()

    def test_negative_augment_to_rejected(self):
        # no rule gives a negative source count a meaning; 0 disables
        with pytest.raises(ConfigError, match="geometry.augment_to must be non-negative"):
            ExperimentConfig(geometry=GeometrySpec(augment_to=-1)).validate()

    @pytest.mark.parametrize("key", ["n_receivers", "n_sources", "augment_to"])
    def test_set_up_arrays_are_bounded(self, key):
        # validated only: at 10^6 the set-up would allocate past the limit
        match = (r"geometry\.n_receivers = 1000000 would need 1\.6e\+04 GB for "
                 r"the receiver weights' \(n_r, n_r, 2\) distances, past the 1 GB"
                 if key == "n_receivers" else
                 r"geometry\.n_sources, augment_to, n_receivers and grid\.nt would "
                 r"need 120 GB for the clean and observed seismograms, past the 1 GB")
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(geometry=GeometrySpec(**{key: 10**6})).validate()

    def test_empty_optimizer_list_is_named(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("[run]\noptimizers =\n")
        with pytest.raises(ConfigError, match="^run.optimizers is empty"):
            load_config(path)

    def test_silent_source_and_amplifying_sponge_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for text, shown in (("[source]\namplitude = 0.0\n", "source.amplitude"),
                            ("[source]\namplitude = -0.0\n", "source.amplitude"),
                            ("[grid]\nboundary_strength = -5.0\n", "boundary strength")):
            path.write_text(text)
            with pytest.raises(ConfigError, match=shown):
                load_config(path)
        # a sponge-free boundary remains valid
        ExperimentConfig(boundary_strength=0.0).validate()

    def test_overflowing_squares_rejected_before_any_solve(self, monkeypatch):
        # the sweeps square h and dt, and nu = auto squares 5 h; each of
        # these raised OverflowError inside the first clean-data solve, and
        # dt = 1e-300, whose square is zero, a SolverBlowupError in the
        # adjoint's 12 h^2 q / dt^2. c0 = 1e-300 ran the whole set-up on
        # zero traces and a division by the zero speed, then calibrated
        # lam = nan
        monkeypatch.setattr(harness, "forward_solve",
                            lambda *args, **kw: pytest.fail("a solve ran"))
        for overrides, shown in ((dict(h=1e155), "grid.h = 1e+155"),
                                 (dict(c0=1e-300, dt=1e160), "grid.dt = 1e+160"),
                                 (dict(h=3e153), "grid.h = 3e+153"),
                                 (dict(dt=1e-300), "grid.dt = 1e-300"),
                                 (dict(c0=1e-300), "grid.c0 = 1e-300")):
            cfg = tiny_config(optimizers=("gogn",), **overrides)
            with pytest.raises(ConfigError, match=re.escape(shown)):
                prepare_experiment(cfg)

    def test_frequency_at_or_past_nyquist_rejected_before_any_solve(self, monkeypatch):
        # at 1e300 Hz the Ricker wavelet is NaN after t = 0, and the set-up
        # raised SolverBlowupError
        monkeypatch.setattr(harness, "forward_solve",
                            lambda *args, **kw: pytest.fail("a solve ran"))
        for frequency in (1e300, 0.5):
            cfg = tiny_config(optimizers=("gogn",), frequency=frequency)
            with pytest.raises(ConfigError, match=re.escape(
                    f"source.frequency = {frequency!r} must lie below the "
                    "Nyquist frequency 0.5 / dt = 0.5")):
                prepare_experiment(cfg)
        # desk records at 0.1 / dt; the bound is strict
        tiny_config(frequency=0.49).validate()

    def test_recording_must_reach_the_wavelet_peak(self, monkeypatch):
        # dt = 1e-160 recorded 49e-160 s against the Ricker delay of 15 s:
        # every clean trace was zero and gogn "converged" after 0 iterations
        monkeypatch.setattr(harness, "forward_solve",
                            lambda *args, **kw: pytest.fail("a solve ran"))
        cfg = tiny_config(optimizers=("gogn",), dt=1e-160)
        with pytest.raises(ConfigError, match=re.escape(
                "ends before the source wavelet peaks at 1.5 / frequency = 15.0 s")):
            prepare_experiment(cfg)
        # the bound is strict: 16 samples record exactly 15 s
        with pytest.raises(ConfigError, match="wavelet peaks"):
            tiny_config(nt=16).validate()
        tiny_config(nt=17).validate()

    def test_curvature_factor_is_bounded_before_any_solve(self, monkeypatch):
        # nlcg's factor on 64 x 1024 would hold 32 * 1024^2 * 63 B; computed,
        # never run
        monkeypatch.setattr(harness, "forward_solve",
                            lambda *args, **kw: pytest.fail("a solve ran"))
        cfg = ExperimentConfig(nx=64, ny=1024, optimizers=("gogn", "nlcg"))
        with pytest.raises(ConfigError, match=re.escape(
                "nlcg would factor a 2.11 GB curvature model, past the 1 GB")):
            prepare_experiment(cfg)
        # gogn builds no factor, and 1024 x 64 factors 134 MB: only validated
        ExperimentConfig(nx=64, ny=1024, optimizers=("gogn",)).validate()
        ExperimentConfig(nx=1024, ny=64, optimizers=("nlcg",)).validate()

    # each passes every other size bound; validated only, never run
    RUN_ARRAYS = [
        (dict(geometry=GeometrySpec(augment_to=40000, n_receivers=10)),
         "geometry.n_sources, augment_to, grid.nx and ny would need 1.31 GB "
         "for the per-source gradients, past the 1 GB"),
        (dict(geometry=GeometrySpec(augment_to=12000, n_receivers=10)),
         "geometry.n_sources and augment_to would need 1.15 GB for gogn's "
         "(N, N) system, past the 1 GB"),
        (dict(nx=100_000, ny=16, nt=17),
         "grid.nx and ny would need 80 GB for the regularizer's cosine basis, "
         "past the 1 GB"),
    ]

    @pytest.mark.parametrize("overrides, shown", RUN_ARRAYS,
                             ids=["gradients", "gogn-system", "cosine-basis"])
    def test_run_arrays_are_bounded(self, overrides, shown):
        with pytest.raises(ConfigError, match=re.escape(shown)):
            ExperimentConfig(**overrides).validate()

    def test_run_arrays_are_bounded_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(harness, "forward_solve",
                            lambda *args, **kw: pytest.fail("a solve ran"))
        overrides, shown = self.RUN_ARRAYS[1]
        with pytest.raises(ConfigError, match=re.escape(shown)):
            prepare_experiment(ExperimentConfig(**overrides))
        # without gogn nothing holds the (N, N) system
        ExperimentConfig(optimizers=("nlcg", "lbfgs", "gncg"), **overrides).validate()

    def test_byte_count_past_the_float_range_reads_inf(self):
        # a config int has no bound; dividing its byte count by 1e9 raised
        # OverflowError
        with pytest.raises(ConfigError, match="would need inf GB for the clean"):
            ExperimentConfig(geometry=GeometrySpec(n_sources=10**400)).validate()

    def test_regularizer_spectrum_must_fit_float64(self, monkeypatch):
        # D^T D's spectrum runs from (lam nu)^2 to below (lam (nu + 8/h^2))^2;
        # lam = 1e-300 made the normal solve's SVD fail to converge, and
        # lam = 1e300 let gogn "converge" after 0 iterations
        monkeypatch.setattr(harness, "forward_solve",
                            lambda *args, **kw: pytest.fail("a solve ran"))
        for lam, nu in (("1e-300", "auto"), ("1e-160", "auto"),
                        ("1e300", "auto"), ("1.0", "1e-300")):
            cfg = tiny_config(optimizers=("gogn",), lam=lam, nu=nu)
            with pytest.raises(ConfigError, match=re.escape(
                    f"regularizer.lam = {lam} and nu = {nu} are out of range")):
                prepare_experiment(cfg)
        tiny_config(lam="1e150").validate()

    def test_retired_amplitude_loads_only_at_one(self, tmp_path):
        # every retired key loads, and is ignored, only at its old default:
        # (values an older manifest may carry, values that exit 2)
        cases = {
            ("source", "amplitude"): (("1.0", "1", "1e0"),
                                      ("0.0", "-0.0", "-1.0", "2.0", "1e300",
                                       "nan", "loud")),
            ("linesearch", "max_iters"): (("10",), ("3", "10.0", "nan")),
            ("linesearch", "quad_interp_phase"): (("5",), ("0",)),
            ("linesearch", "armijo_c1"): (("0.0", "0"), ("1e-4", "0.5")),
        }
        assert cases.keys() == harness._RETIRED.keys()
        path = tmp_path / "old.cfg"
        default = "\n".join(config_lines(ExperimentConfig())) + "\n"
        for (section, key), (loads, exits) in cases.items():
            for raw in loads:
                path.write_text(default.replace(f"[{section}]\n",
                                                f"[{section}]\n{key} = {raw}\n"))
                cfg = load_config(path)
                assert cfg == ExperimentConfig()
                assert not any(line.startswith(f"{key} =")
                               for line in config_lines(cfg))
            for raw in exits:
                path.write_text(f"[{section}]\n{key} = {raw}\n")
                with pytest.raises(ConfigError, match=rf"{section}\.{key} .*retired"):
                    load_config(path)

    def test_kept_field_size_is_bounded(self):
        # desk's kept field: 149 steps of 104 x 106 band rows, 13.1 MB
        desk = ExperimentConfig()
        assert desk.sim_grid().kept_field_bytes() == 149 * 104 * 106 * 8
        # dt = 1000 needs 788 substeps per sample: 10.35 GB per field. Only
        # validated, never run.
        huge = ExperimentConfig(dt=1000.0)
        nbytes = huge.sim_grid().kept_field_bytes()
        assert nbytes == 788 * 149 * 104 * 106 * 8
        assert nbytes > harness.ARRAY_LIMIT_BYTES
        with pytest.raises(ConfigError, match=r"would hold 10\.4 GB, past the 1 GB"):
            huge.validate()
        with pytest.raises(ConfigError, match="would hold inf GB"):
            ExperimentConfig(dt=1e308).validate()
        # 6.3e303 substeps: a finite count whose bytes pass the float range
        with pytest.raises(ConfigError, match="would hold inf GB"):
            ExperimentConfig(h=1e-300).validate()
        with pytest.raises(ConfigError, match="kept forward field"):
            ExperimentConfig(nx=100_000, ny=100_000).validate()

    def test_readme_block_is_the_default_config(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        documented = [line.split("#", 1)[0].rstrip()
                      for line in block.splitlines()]
        assert documented == [line.rstrip()
                              for line in config_lines(ExperimentConfig())]


def random_config(rng):
    """A valid config whose every key is drawn at random. A draw whose kept
    forward field would pass the size bound, whose h or dt squares outside
    the float range, whose frequency is not below the Nyquist frequency
    0.5 / dt, whose recording ends before the wavelet peaks, or whose
    explicit lam puts the regularizer's spectrum outside float64, is made
    again."""
    redraw = ("kept forward field", "out of range", "Nyquist frequency",
              "wavelet peaks")
    while True:
        cfg = _random_draw(rng)
        try:
            return cfg.validate()
        except ConfigError as exc:
            if not any(reason in str(exc) for reason in redraw):
                raise


def _random_draw(rng):
    def num():
        return rng.choice([rng.random(), 10.0 ** rng.uniform(-300, 300),
                           float(rng.randint(1, 9999)), 0.1])

    def name():
        return rng.choice(["", "layout.txt", "dir/a-b_c.modl"])

    geo_kind = rng.choice(["uniform", "clustered", "from-file"])
    tgt_kind = rng.choice(["face", "disks", "from-file"])
    return ExperimentConfig(
        nx=rng.randint(8, 300), ny=rng.randint(8, 300), h=num(), c0=num(),
        dt=num(), nt=rng.randint(2, 999), boundary_width=rng.randint(0, 40),
        boundary_strength=num(), frequency=num(),
        geometry=GeometrySpec(
            kind=geo_kind, n_sources=rng.randint(1, 40),
            n_receivers=rng.randint(1, 500), seed=rng.randint(0, 2**31),
            augment_to=rng.randint(0, 50),
            file=name() if geo_kind != "from-file" else "layout.txt"),
        target=TargetSpec(kind=tgt_kind, cap=rng.uniform(1e-6, 0.999),
                          file=name() if tgt_kind != "from-file" else "t.modl"),
        lam=rng.choice(["auto", repr(num())]),
        nu=rng.choice(["auto", repr(num())]),
        sigma=rng.choice([0.0, num()]), noise_seed=rng.randint(0, 2**31),
        optimizers=tuple(rng.sample(harness.OPTIMIZER_NAMES,
                                    rng.randint(1, 4))),
        budget=rng.randint(1, 1000), threads=rng.randint(1, 8),
        ls_step_cap=num())


class TestGeometry:
    def test_same_seed_same_layout(self):
        spec = GeometrySpec(kind="uniform", n_sources=5, n_receivers=30, seed=42)
        a = gen_geometry(spec, EXTENT, 0.1)
        b = gen_geometry(spec, EXTENT, 0.1)
        assert [s.position for s in a.sources] == [s.position for s in b.sources]
        np.testing.assert_array_equal(a.receivers, b.receivers)
        c = gen_geometry(replace(spec, seed=43), EXTENT, 0.1)
        assert [s.position for s in a.sources] != [s.position for s in c.sources]

    def test_uniform_samples_inner_square(self):
        spec = GeometrySpec(kind="uniform", n_sources=2, n_receivers=10_000, seed=0)
        geom = gen_geometry(spec, EXTENT, 0.1)
        pos = np.asarray(geom.receivers)
        assert pos.min() >= 0.2 * EXTENT[0]
        assert pos.max() <= 0.8 * EXTENT[0]
        center = 0.5 * EXTENT[0]
        assert np.all(np.abs(pos.mean(axis=0) - center) <= 0.02 * EXTENT[0])

    def test_clustered_loads_bundled_layout(self):
        spec = GeometrySpec(kind="clustered", n_sources=4, n_receivers=60)
        geom = gen_geometry(spec, EXTENT, 0.1)
        assert geom.n_sources == 4
        assert geom.n_receivers == 60
        pos = np.asarray(geom.receivers)
        assert pos.min() >= 0.0 and pos.max() <= EXTENT[0]
        # the bundled layout is fixed, so a different seed changes nothing
        geom2 = gen_geometry(replace(spec, seed=99), EXTENT, 0.1)
        np.testing.assert_array_equal(pos, np.asarray(geom2.receivers))

    def test_clustered_rejects_oversized_requests(self):
        spec = GeometrySpec(kind="clustered", n_sources=999, n_receivers=10)
        with pytest.raises(ConfigError, match="sources"):
            gen_geometry(spec, EXTENT, 0.1)
        spec = GeometrySpec(kind="clustered", n_sources=4, n_receivers=9999)
        with pytest.raises(ConfigError, match="receivers"):
            gen_geometry(spec, EXTENT, 0.1)

    def test_augment_preserves_originals_and_count(self):
        spec = GeometrySpec(kind="uniform", n_sources=5, n_receivers=10,
                            seed=7, augment_to=25)
        base = gen_geometry(replace(spec, augment_to=0), EXTENT, 0.1)
        geom = gen_geometry(spec, EXTENT, 0.1)
        assert geom.n_sources == 25
        for orig, kept in zip(base.sources, geom.sources[:5]):
            assert orig.position == kept.position
        for src in geom.sources:
            assert 0.0 <= src.position[0] <= EXTENT[0]
            assert 0.0 <= src.position[1] <= EXTENT[1]

    def test_augment_jitter_scale_is_five_percent(self):
        spec = GeometrySpec(kind="uniform", n_sources=1, n_receivers=2,
                            seed=3, augment_to=401)
        geom = gen_geometry(spec, EXTENT, 0.1)
        parent = np.array(geom.sources[0].position)
        deltas = np.array([s.position for s in geom.sources[1:]]) - parent
        # 800 jitter draws; std 5% of the domain width
        assert 0.04 * EXTENT[0] <= deltas.std() <= 0.06 * EXTENT[0]
        assert np.abs(deltas.mean()) <= 0.01 * EXTENT[0]

    def test_from_file_layout(self, tmp_path):
        path = tmp_path / "layout.txt"
        path.write_text("# comment\nsource 0.5 0.25\nreceiver 0.1 0.9\n"
                        "receiver 0.2 0.8\n")
        spec = GeometrySpec(kind="from-file", n_sources=1, n_receivers=2,
                            file=str(path))
        geom = gen_geometry(spec, EXTENT, 0.1)
        assert geom.sources[0].position == (250e3, 125e3)
        np.testing.assert_allclose(geom.receivers,
                                   [[50e3, 450e3], [100e3, 400e3]])

    def test_layout_parse_errors(self, tmp_path):
        path = tmp_path / "layout.txt"
        path.write_text("station 0.5 0.5\n")
        spec = GeometrySpec(kind="from-file", n_sources=1, n_receivers=1,
                            file=str(path))
        with pytest.raises(ConfigError, match="unknown kind"):
            gen_geometry(spec, EXTENT, 0.1)
        path.write_text("source 1.5 0.5\n")
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            gen_geometry(spec, EXTENT, 0.1)
        path.write_text("source 0.5\n")
        with pytest.raises(ConfigError, match="expected"):
            gen_geometry(spec, EXTENT, 0.1)

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown geometry kind 'grid'"):
            gen_geometry(GeometrySpec(kind="grid"), EXTENT, 0.1)


class TestTarget:
    def test_face_amplitude_bounds_are_exact(self):
        target = gen_target(TargetSpec(kind="face", cap=0.05), 64, 64)
        v = target.values
        assert v.min() == -0.05
        assert v.max() == 0.0

    def test_face_is_bitwise_mirror_symmetric(self):
        target = gen_target(TargetSpec(kind="face", cap=0.05), 64, 48)
        grid = target.as_2d()
        assert np.array_equal(grid, grid[::-1, :])

    def test_face_deterministic(self):
        a = gen_target(TargetSpec(kind="face", cap=0.05), 32, 32)
        b = gen_target(TargetSpec(kind="face", cap=0.05), 32, 32)
        assert a.values.tobytes() == b.values.tobytes()

    def test_disks_within_bounds(self):
        target = gen_target(TargetSpec(kind="disks", cap=0.02), 40, 40)
        v = target.values
        assert v.min() == -0.02
        assert v.max() <= 0.0

    def test_from_file_round_trip(self, tmp_path):
        target = gen_target(TargetSpec(kind="face", cap=0.05), 32, 32)
        path = tmp_path / "t.modl"
        fileio.write_model(path, target)
        spec = TargetSpec(kind="from-file", cap=0.05, file=str(path))
        back = gen_target(spec, 32, 32)
        assert back.values.tobytes() == target.values.tobytes()

    def test_from_file_dimension_mismatch(self, tmp_path):
        target = gen_target(TargetSpec(kind="face", cap=0.05), 32, 32)
        path = tmp_path / "t.modl"
        fileio.write_model(path, target)
        with pytest.raises(ConfigError, match="32x32"):
            gen_target(TargetSpec(kind="from-file", cap=0.05,
                                  file=str(path)), 20, 20)

    def test_from_file_cap_violation(self, tmp_path):
        path = tmp_path / "hot.modl"
        fileio.write_model(path, ModelGrid(np.full(18 * 18, -0.2), 18, 18))
        with pytest.raises(ValueError, match=r"\[-cap, 0\]"):
            gen_target(TargetSpec(kind="from-file", cap=0.05,
                                  file=str(path)), 18, 18)

    def test_target_model_invariant(self, tmp_path):
        # a target above 0 breaks the [-cap, 0] invariant as surely as one
        # below -cap
        path = tmp_path / "warm.modl"
        fileio.write_model(path, ModelGrid(np.full(18 * 18, 0.01), 18, 18))
        with pytest.raises(ValueError, match=r"\[-cap, 0\]"):
            gen_target(TargetSpec(kind="from-file", cap=0.05,
                                  file=str(path)), 18, 18)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ConfigError, match="16x16"):
            gen_target(TargetSpec(kind="face", cap=0.05), 12, 12)

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown target kind 'ring'"):
            gen_target(TargetSpec(kind="ring"), 32, 32)


class TestPrepare:
    def test_setup_cost_and_calibration(self):
        cfg = tiny_config()
        exp = prepare_experiment(cfg)
        n = cfg.geometry.n_sources
        # clean simulation (N) plus the diagonal curvature probe (3N)
        assert exp.setup_solves == 4 * n
        assert exp.lam > 0 and exp.cfg.nu_value() > 0
        assert exp.h0_diag.shape == (cfg.nx * cfg.ny,)

    def test_explicit_regularizer_values_pass_through(self):
        exp = prepare_experiment(tiny_config(lam="2.5", nu="1e-9"))
        assert exp.lam == 2.5
        assert exp.cfg.nu_value() == 1e-9

    def test_problem_instances_have_independent_ledgers(self):
        exp = prepare_experiment(tiny_config())
        a, b = exp.problem(), exp.problem()
        a.ledger.count_forward(3)
        assert b.ledger.total == 0

    def test_grid_errors_become_config_errors(self):
        with pytest.raises(ConfigError):
            prepare_experiment(tiny_config(nx=4, ny=4))

    def test_target_errors_become_config_errors_before_any_solve(self, tmp_path,
                                                                 monkeypatch):
        solves = []
        monkeypatch.setattr(harness, "forward_solve",
                            lambda *args, **kw: solves.append(args))
        path = tmp_path / "warm.modl"
        fileio.write_model(path, ModelGrid(np.full(20 * 20, 0.01), 20, 20))
        cfg = tiny_config(target=TargetSpec(kind="from-file", file=str(path)))
        with pytest.raises(ConfigError, match=r"\[-cap, 0\]"):
            prepare_experiment(cfg)
        assert solves == []


class TestRunComparison:
    def test_artifacts_and_determinism(self, tmp_path):
        cfg = tiny_config(optimizers=("gogn", "nlcg"))
        out1 = tmp_path / "run1"
        results = run_comparison(cfg, out1)
        for name in ("gogn", "nlcg"):
            assert results[name] is not None
            assert (out1 / f"{name}_trace.csv").exists()
            assert (out1 / f"{name}_final.modl").exists()
            assert (out1 / f"{name}_final.pgm").exists()
        assert (out1 / "manifest.cfg").exists()
        assert (out1 / "target.modl").exists()
        assert (out1 / "geometry.txt").exists()

        out2 = tmp_path / "run2"
        run_comparison(cfg, out2)
        for name in ("gogn", "nlcg"):
            assert ((out1 / f"{name}_trace.csv").read_bytes()
                    == (out2 / f"{name}_trace.csv").read_bytes())
            assert ((out1 / f"{name}_final.modl").read_bytes()
                    == (out2 / f"{name}_final.modl").read_bytes())

    def test_rerun_from_manifest_is_bitwise_identical(self, tmp_path):
        cfg = tiny_config(optimizers=("gogn",))
        out1 = tmp_path / "orig"
        run_comparison(cfg, out1)
        cfg2 = load_config(out1 / "manifest.cfg")
        out2 = tmp_path / "replay"
        run_comparison(cfg2, out2)
        assert ((out1 / "gogn_trace.csv").read_bytes()
                == (out2 / "gogn_trace.csv").read_bytes())
        assert ((out1 / "gogn_final.modl").read_bytes()
                == (out2 / "gogn_final.modl").read_bytes())
        assert ((out1 / "target.modl").read_bytes()
                == (out2 / "target.modl").read_bytes())

    def test_budget_respected_in_traces(self, tmp_path):
        cfg = tiny_config(optimizers=("gogn", "lbfgs"), budget=15)
        results = run_comparison(cfg, tmp_path / "out")
        for res in results.values():
            recs = res.records
            for rec in recs[:-1]:
                assert rec.solves < cfg.budget
            if len(recs) >= 2:
                overshoot = recs[-1].solves - cfg.budget
                assert overshoot <= recs[-1].solves - recs[-2].solves

    def test_failed_optimizer_recorded_others_run(self, tmp_path, monkeypatch):
        cfg = tiny_config(optimizers=("nlcg", "gogn"))
        out = tmp_path / "out"
        run_comparison(cfg, out)  # an earlier run's nlcg files must not stay
        assert (out / "nlcg_trace.csv").exists()
        real_run_one = harness.run_one

        def sabotaged(exp, name):
            if name == "nlcg":
                raise RuntimeError("boom")
            return real_run_one(exp, name)

        monkeypatch.setattr(harness, "run_one", sabotaged)
        results = run_comparison(cfg, out)
        assert results["nlcg"] is None
        assert results["gogn"] is not None
        manifest = (out / "manifest.cfg").read_text()
        assert "nlcg_status = failed (RuntimeError: boom)" in manifest
        assert "gogn_status = " in manifest
        assert not list(out.glob("nlcg_*"))
        assert (out / "gogn_trace.csv").exists()

    def test_rerun_leaves_no_artifact_of_an_earlier_run(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("mine\n")
        harness.write_data_dir(tiny_config(), out)
        assert (out / "obs_src000.seis").exists()
        run_comparison(tiny_config(), out)
        assert (out / "gncg_trace.csv").exists()
        run_comparison(tiny_config(optimizers=("gogn",)), out)
        assert sorted(p.name for p in out.iterdir()) == [
            "geometry.txt", "gogn_final.modl", "gogn_final.pgm",
            "gogn_trace.csv", "manifest.cfg", "notes.txt", "target.modl",
            "target.pgm"]
        assert (out / "notes.txt").read_text() == "mine\n"

    def test_threaded_comparison_completes(self, tmp_path):
        cfg = tiny_config(optimizers=("gogn", "nlcg"), threads=2)
        results = run_comparison(cfg, tmp_path / "out")
        assert all(res is not None for res in results.values())

    def test_manifest_contains_derived_and_results(self, tmp_path):
        cfg = tiny_config(optimizers=("gogn",))
        out = tmp_path / "out"
        run_comparison(cfg, out)
        manifest = (out / "manifest.cfg").read_text()
        for token in ("[derived]", "lam = ", "nu = ", "substeps = ",
                      "setup_solves = ", "m_true_norm = ", "[results]",
                      "gogn_solves = ", "gogn_model_error = "):
            assert token in manifest
        assert "time" not in manifest.lower()

    def test_manifest_numbers_are_plain_floats(self, tmp_path):
        # auto lam is derived from numpy scalars; its repr must not depend on
        # the numpy version (numpy 2 writes "np.float64(...)")
        cfg = tiny_config(optimizers=("gogn",))
        out = tmp_path / "out"
        run_comparison(cfg, out)
        section, checked = None, []
        for line in (out / "manifest.cfg").read_text().splitlines():
            if line.startswith("["):
                section = line
            elif " = " in line and section in ("[derived]", "[results]"):
                key, value = line.split(" = ", 1)
                if not key.endswith("_status"):
                    float(value)
                    checked.append(key)
        assert {"lam", "nu", "h0_inf_norm", "gogn_objective"} <= set(checked)

    def test_tiny_nu_runs_to_budget(self, tmp_path):
        # cond(D^T D) = (1 + 8 / (h^2 nu))^2 ~ 4e8: the normal solve's
        # residual is then ~cond * eps, which is accuracy, not a failure
        cfg = tiny_config(h=20000.0, nt=60, boundary_width=6, nu="1e-12",
                          optimizers=("gogn", "lbfgs"), budget=24)
        results = run_comparison(cfg, tmp_path / "out")
        statuses = {name: res.status if res else None for name, res in results.items()}
        assert statuses == {"gogn": "budget", "lbfgs": "budget"}

    def test_calibrated_lam_outside_float64_runs_no_optimizer(self, tmp_path,
                                                              monkeypatch):
        # nu = 1e-300 calibrates lam = 2.19e10, whose (lam nu)^2 underflows
        monkeypatch.setattr(harness, "run_one",
                            lambda *args: pytest.fail("an optimizer ran"))
        cfg = tiny_config(optimizers=("gogn",), nu="1e-300")
        with pytest.raises(ConfigError, match=(
                r"\[regularizer\] lam = auto calibrated to 219\d{8}\.\d+, which "
                "is out of range")):
            run_comparison(cfg, tmp_path / "out")

    def test_too_small_nu_names_the_knob(self, tmp_path):
        # at h^2 nu = 4e-10 gogn's N x N system loses definiteness in float64
        cfg = tiny_config(h=20000.0, nt=60, boundary_width=6, nu="1e-18",
                          optimizers=("gogn",), budget=24)
        out = tmp_path / "out"
        assert run_comparison(cfg, out)["gogn"] is None
        status = re.search(r"gogn_status = (.*)", (out / "manifest.cfg").read_text())
        assert re.fullmatch(
            r"failed \(RuntimeError: low-rank system not SPD \(cond ~ \S+\): "
            r"cond\(D\^T D\) ~ 4\.000e\+20 at h\^2 nu = 4\.000e-10 is too large "
            r"for float64; raise \[regularizer\] nu\)", status.group(1))


@pytest.mark.parametrize("name", harness.OPTIMIZER_NAMES)
def test_every_optimizer_spends_its_solves_by_kind(monkeypatch, name):
    # between gradient sweeps: forward N (1 + ls_evals), adjoint N (1 + inner)
    # and Born N inner, where inner is gncg's Hessian products and 0 for the
    # other three
    exp = prepare_experiment(tiny_config(optimizers=(name,), budget=60))
    sweeps = []
    real = harness.FwiProblem.misfit_and_gradients

    def recorded(self, *args, **kw):
        report = real(self, *args, **kw)
        sweeps.append(self.ledger.snapshot())
        return report
    monkeypatch.setattr(harness.FwiProblem, "misfit_and_gradients", recorded)
    result, ledger = harness.run_one(exp, name)
    n = exp.cfg.geometry.n_sources
    assert len(sweeps) == len(result.records) >= 3
    assert (sweeps[0].forward, sweeps[0].adjoint, sweeps[0].born) == (n, n, 0)
    for rec, a, b in zip(result.records[1:], sweeps, sweeps[1:]):
        inner = int(rec.extra) if name == "gncg" else 0
        assert b.forward - a.forward == n * (1 + rec.ls_evals)
        assert b.adjoint - a.adjoint == n * (1 + inner)
        assert b.born - a.born == n * inner
    assert ledger.snapshot() == sweeps[-1]


@pytest.mark.parametrize("name", harness.OPTIMIZER_NAMES)
def test_every_run_is_checked_against_the_formula(monkeypatch, name):
    # a second gradient sweep that charges one forward solve too many
    exp = prepare_experiment(tiny_config(optimizers=(name,), budget=60))
    sweeps = []
    real = harness.FwiProblem.misfit_and_gradients

    def overcharged(self, *args, **kw):
        sweeps.append(None)
        if len(sweeps) == 2:
            self.ledger.count_forward()
        return real(self, *args, **kw)
    monkeypatch.setattr(harness.FwiProblem, "misfit_and_gradients", overcharged)
    with pytest.raises(RuntimeError, match="accounting violated at iteration 1"):
        harness.run_one(exp, name)


class TestAccountingGuard:
    def test_violation_raises(self):
        from gowave.harness import _check_gradient_only_accounting
        from gowave.optim import RunResult, TraceRecord

        def rec(it, solves, evals):
            return TraceRecord(iter=it, solves=solves, objective=1.0,
                               grad_norm=1.0, model_error=0.0, step=0.1,
                               ls_evals=evals)

        good = RunResult(name="gogn", status="budget", solves=10,
                         m_final=np.zeros(4), records=[rec(0, 4, 0), rec(1, 10, 1)])
        _check_gradient_only_accounting(good, 2)
        bad = RunResult(name="gogn", status="budget", solves=12,
                        m_final=np.zeros(4), records=[rec(0, 4, 0), rec(1, 12, 1)])
        with pytest.raises(RuntimeError, match="accounting"):
            _check_gradient_only_accounting(bad, 2)
        bad_start = RunResult(name="gogn", status="budget", solves=5,
                              m_final=np.zeros(4), records=[rec(0, 5, 0)])
        with pytest.raises(RuntimeError, match="startup"):
            _check_gradient_only_accounting(bad_start, 2)


def test_render_file(tmp_path):
    # a stored model renders through fileio alone; the harness adds no wrapper
    assert not hasattr(harness, "render_file")
    model = ModelGrid(np.zeros(18 * 18), 18, 18)
    src = tmp_path / "m.modl"
    fileio.write_model(src, model)
    dst = tmp_path / "m.pgm"
    fileio.write_pgm(dst, fileio.read_model(src).as_2d(), 0.05)
    raw = dst.read_bytes()
    assert raw.startswith(b"P5\n18 18\n255\n")
    assert set(raw.split(b"\n", 3)[3]) == {128}


def test_no_run_imports_scipy():
    # gncg only applies its operators, gogn solves with D in its eigenbasis,
    # and nlcg and lbfgs factor the curvature model with numpy
    script = """
import sys
import gowave
from gowave.harness import ExperimentConfig, GeometrySpec, prepare_experiment, run_one
def loaded():
    return any(m.split('.')[0] == 'scipy' for m in sys.modules)
print(loaded())
exp = prepare_experiment(ExperimentConfig(
    nx=20, ny=20, h=8000.0, nt=50, boundary_width=8, budget=12,
    geometry=GeometrySpec(kind='uniform', n_sources=2, n_receivers=8)))
run_one(exp, 'gncg')
print(loaded())
run_one(exp, 'gogn')
print(loaded())
run_one(exp, 'nlcg')
run_one(exp, 'lbfgs')
print(loaded())
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "False", "False", "False"]


def test_benchmark_wraps_only_names_that_exist():
    # perfbench/job.py binds gowave functions and methods by name; deleting
    # one breaks every traced benchmark job
    root = Path(__file__).resolve().parents[1]
    script = (f"import sys; sys.path.insert(0, {str(root / 'perfbench')!r}); "
              "import job; job.install(job.Recorder(0), True, {})")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
