"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import analysis  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gowave.harness import ExperimentConfig, GeometrySpec, config_lines, load_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 7, 2**40 + 3])
def test_configs_are_deterministic_and_round_trip(tmp_path, workload, seed):
    text = workloads.config_text(workload, seed)
    assert text == workloads.config_text(workload, seed)
    first = tmp_path / "first.cfg"
    first.write_text(text)
    cfg = load_config(first)
    assert (cfg.geometry.seed, cfg.noise_seed) == workloads.derived_seeds(seed)
    assert cfg.threads == 1
    again = tmp_path / "again.cfg"
    again.write_text("\n".join(config_lines(cfg)) + "\n")
    assert load_config(again) == cfg


def test_default_seed_gives_the_specified_configs(tmp_path):
    def load(workload):
        path = tmp_path / f"{workload}.cfg"
        path.write_text(workloads.config_text(workload, workloads.DEFAULT_SEED))
        return load_config(path)

    base = ExperimentConfig(threads=1)
    assert load("desk") == base
    assert load("wide-gogn") == replace(
        base, geometry=GeometrySpec(kind="clustered", n_sources=16,
                                    n_receivers=400),
        optimizers=("gogn",), budget=200)
    assert load("fine-gncg") == replace(base, nx=128, ny=128,
                                        optimizers=("gncg",))


def test_benchmark_json_names_and_units():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w["why"] for name, w in workloads.WORKLOADS.items()}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64, m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _span(i, name, start, end, parent, **attrs):
    return [i, name, start, end, parent, 0, attrs]


def test_self_times_subtract_children():
    spans = [_span(0, "harness.run_one", 0.0, 10.0, None, opt="gogn",
                   forward=1, adjoint=1, born=0),
             _span(1, "problem.gradient", 1.0, 9.0, 0),
             _span(2, "wave.forward_keep", 1.0, 4.0, 1, work=10),
             _span(3, "wave.adjoint", 4.0, 8.0, 1, work=10)]
    own = analysis.self_times(spans)
    assert own == {0: 2.0, 1: 1.0, 2: 3.0, 3: 4.0}
    assert set(analysis.phases(spans).values()) == {0}


def _tiny_config(tmp_path):
    text = workloads.config_text("desk", 3)
    for key, value in (("nx", "16"), ("ny", "16"), ("nt", "60"),
                       ("n_receivers", "8"), ("n_sources", "2"),
                       ("budget", "12")):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1,
                      flags=re.M)
    path = tmp_path / "tiny.cfg"
    path.write_text(text)
    return path


def test_traced_job_reports_every_metric(tmp_path):
    """A traced and an untraced job of a tiny compare agree on ledger and
    artifacts, and together yield exactly the metrics BENCHMARK.json names."""
    cfg = _tiny_config(tmp_path)
    jobs = []
    for traced in (False, True):
        out, result = tmp_path / f"out{traced}", tmp_path / f"res{traced}.json"
        wall, rss, rc = run.spawn(
            ["compare", str(cfg), str(out), str(result)]
            + (["--trace"] if traced else []), tmp_path / "log.txt", 120)
        assert rc == 0, (tmp_path / "log.txt").read_text()
        data = json.loads(result.read_text())
        main_s = next(s[3] - s[2] for s in data["spans"] if s[1] == "cli.main")
        jobs.append((wall, rss, main_s, data, checks.digests(out)))
    (uw, urss, umain, udata, udig), (tw, _, _, tdata, tdig) = jobs
    assert udig == tdig
    ledgers = [analysis.ledger_counts(analysis.job_summary(d["spans"]))
               for d in (udata, tdata)]
    assert ledgers[0] == ledgers[1]

    layer = analysis.per_layer([(tdata["spans"], tdata["field_bytes"])],
                               [uw], [tw], [umain])
    layer.update({f"ledger.{k}": v for k, v in ledgers[1].items()})
    assert set(layer) == {m["name"] for m in SPEC["per_layer"]}
    assert abs(layer["trace.accounted_frac"] - 1.0) < 0.05
    assert layer["wave.field_mb"] > 0

    summary = analysis.job_summary(udata["spans"])
    e2e = analysis.end_to_end([uw], [urss], [summary], summary["setup_s"])
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in e2e.values())


def test_flipped_byte_is_reported_as_a_failure(tmp_path):
    for name in ("gogn_trace.csv", "gogn_final.modl", "gncg_final.pgm",
                 "manifest.cfg"):
        (tmp_path / name).write_bytes(name.encode() * 8)
    want = checks.digests(tmp_path)
    assert checks.digest_mismatches(checks.digests(tmp_path), want) == []

    target = tmp_path / "gogn_final.modl"
    raw = bytearray(target.read_bytes())
    raw[5] ^= 0x01
    target.write_bytes(bytes(raw))
    bench = run.Run("desk", 1, 1, 0)
    bench.jobs = [{}]
    bench._charge(0, checks.digest_mismatches(checks.digests(tmp_path), want),
                  "differs")
    assert bench.failed == 1
    assert bench.failures[0][1] == "gogn"

    (tmp_path / "manifest.cfg").write_bytes(b"changed")
    bench._charge(0, checks.digest_mismatches(checks.digests(tmp_path), want),
                  "differs")
    assert bench.failed == len(bench.opts)


def test_run_checks_flag_budget_and_objective(tmp_path):
    rows = ["iter,solves,objective,grad_norm,model_error,step,ls_evals,extra",
            "0,8,5.0,1.0,1.0,0.0,0,", "1,20,5.0,1.0,1.0,0.1,1,"]
    (tmp_path / "gogn_trace.csv").write_text("\n".join(rows) + "\n")
    span = _span(0, "harness.run_one", 0.0, 1.0, None, opt="gogn",
                 forward=60, adjoint=30, born=0)
    problems = checks.check_run("desk", "gogn", tmp_path,
                                {"gogn_status": "budget", "gogn_solves": "90"},
                                span)
    assert any("outside" in p for p in problems)
    assert any("strictly decreasing" in p for p in problems)
    errored = _span(0, "harness.run_one", 0.0, 1.0, None, opt="gogn",
                    error="RuntimeError: gradient-only accounting violated")
    assert checks.check_run("desk", "gogn", tmp_path, {}, errored)
