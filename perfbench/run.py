"""gowave benchmark: closed-loop `gowave compare` jobs on generated configs.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Each job runs in a fresh child process (perfbench/job.py) and the next
starts only after it exits: one client, closed loop. A run makes at least
MIN_JOBS jobs, and more while the next one is expected to finish within
--seconds; metrics are medians over the jobs, so one slow job on a shared
machine does not set a run's figure.
BLAS and OpenMP threads are pinned to 1 and the configs use threads = 1.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
jobs, plus a set-up probe child that repeats the experiment set-up so that
setup_s is a median of several set-ups. --trace 1 alternates untraced and
traced jobs and reports the per-layer metrics, including the tracing
overhead. Both print a human-readable report and, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}; an operation is
one optimizer run, and it fails if the program fails it or if it fails
the output checks (checks.py). --workload all runs every workload in turn.

Artifact digests must repeat: across the jobs of a run, and across runs at
the same seed on the same sources and config (cached under
perfbench/_work/digests).
--golden-write DIR stores them; --golden-check DIR compares against digests
stored from another commit, for example the parent checked out with
`git worktree add`, and charges each mismatch as a failure.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import analysis
import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0
MIN_JOBS = 2


class Preflight(Exception):
    """The checkout cannot run the benchmark at all."""


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine_facts() -> dict:
    import numpy
    import scipy
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"l{level}_per_instance"] = _read(index / "size")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "pinned": PINNED}


def source_hash(config: str) -> str:
    """Hash of the program sources and the generated config."""
    h = hashlib.sha256(config.encode())
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def spawn(args, log, timeout):
    """Run `job.py args` to completion in a child process.

    Returns (wall seconds from spawn to exit, peak RSS in MB, exit code);
    the child is killed if it outlives `timeout`.
    """
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(log, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "job.py")] + args,
            stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(max(1.0, timeout), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed, seconds, trace, golden_check=None):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.golden_check = golden_check
        self.opts = workloads.optimizers(workload)
        self.dir = WORK / f"{workload}-s{seed}-t{trace}-p{os.getpid()}"
        self.jobs = []          # dicts: wall, rss_mb, traced, spans, ...
        self.setup_samples = []
        self.failures = []      # (job index, optimizer, reason)
        self.reference = None   # artifact digests all jobs must match
        self.reference_ledger = None
        self.model_errors = {}

    def _fail(self, job, opts, reason):
        self.failures += [(job, opt, reason) for opt in opts]

    def _budget_left(self, t_start):
        return RUN_LIMIT_S - (time.perf_counter() - t_start)

    def compare_job(self, traced, t_start):
        index = len(self.jobs)
        jdir = self.dir / f"job{index}"
        jdir.mkdir(parents=True)
        result = jdir / "result.json"
        args = ["compare", str(self.dir / "config.cfg"), str(jdir / "out"),
                str(result), "--job", str(index)] + (["--trace"] if traced else [])
        wall, rss, rc = spawn(args, jdir / "log.txt", self._budget_left(t_start))
        job = {"wall": wall, "rss_mb": rss, "traced": traced, "spans": [],
               "field_bytes": None, "main_s": 0.0}
        self.jobs.append(job)
        if rc != 0 or not result.is_file():
            tail = _read(jdir / "log.txt").splitlines()[-1:]
            self._fail(index, self.opts, f"job exited {rc}: {' '.join(tail)}")
            return job
        data = json.loads(result.read_text())
        job["spans"], job["field_bytes"] = data["spans"], data["field_bytes"]
        job["main_s"] = next((s[3] - s[2] for s in data["spans"]
                              if s[1] == "cli.main"), 0.0)
        self._check(index, job, jdir / "out")
        return job

    def _check(self, index, job, out):
        runs = {s[6]["opt"]: s for s in job["spans"] if s[1] == "harness.run_one"}
        manifest = out / "manifest.cfg"
        results = checks.manifest_results(manifest) if manifest.is_file() else {}
        for opt in self.opts:
            for problem in checks.check_run(self.workload, opt, out, results,
                                            runs.get(opt)):
                self._fail(index, [opt], problem)
            if f"{opt}_model_error" in results:
                self.model_errors[opt] = float(results[f"{opt}_model_error"])
        job["digests"] = checks.digests(out)
        job["ledger"] = analysis.ledger_counts(analysis.job_summary(job["spans"]))
        if self.reference is None:
            self.reference = job["digests"]
            self.reference_ledger = job["ledger"]
            return
        self._charge(index, checks.digest_mismatches(job["digests"], self.reference),
                     "differs from the run's first job")
        if job["ledger"] != self.reference_ledger:
            self._fail(index, self.opts, f"ledger {job['ledger']} != "
                       f"{self.reference_ledger} of the run's first job")

    def _charge(self, index, names, why):
        for opt, files in checks.owners(names, self.opts).items():
            self._fail(index, [opt], f"{', '.join(files)} {why}")

    def execute(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "config.cfg").write_text(
            workloads.config_text(self.workload, self.seed))
        t_start = time.perf_counter()
        try:
            while True:
                t0 = time.perf_counter()
                self.compare_job(False, t_start)
                if self.trace:
                    self.compare_job(True, t_start)
                if self.failures and not self.reference:
                    break
                elapsed = time.perf_counter() - t_start
                step = time.perf_counter() - t0
                if len(self.jobs) >= MIN_JOBS and \
                        elapsed + step > min(self.seconds, RUN_LIMIT_S / 2):
                    break
            if self.trace:
                self.write_spans()
            else:
                self.setup_probe(t_start)
            self.compare_digests()
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        self.elapsed = time.perf_counter() - t_start

    def write_spans(self):
        """Keep the traced jobs' spans, one JSON list per line."""
        out = WORK / "spans" / f"{self.workload}-s{self.seed}.jsonl"
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            for job in self.jobs:
                if job["traced"]:
                    fh.writelines(json.dumps(s) + "\n" for s in job["spans"])

    def setup_probe(self, t_start):
        result = self.dir / "setup.json"
        _, _, rc = spawn(["setup", str(self.dir / "config.cfg"), str(result)],
                         self.dir / "setup-log.txt", self._budget_left(t_start))
        if rc != 0 or not result.is_file():
            self._fail(0, self.opts, f"set-up probe exited {rc}")
            return
        spans = json.loads(result.read_text())["spans"]
        self.setup_samples += analysis.job_summary(spans)["setup_s"]

    def compare_digests(self):
        """Digests against earlier runs at this seed and, if asked, golden
        digests from another commit."""
        if self.reference is None:
            return
        key = f"{self.workload}-s{self.seed}.json"
        config = (self.dir / "config.cfg").read_text()
        cache = WORK / "digests" / source_hash(config) / key
        if cache.is_file():
            self._charge(0, checks.digest_mismatches(
                self.reference, json.loads(cache.read_text())),
                "differs from an earlier run at this seed")
        else:
            cache.parent.mkdir(parents=True, exist_ok=True)
            cache.write_text(json.dumps(self.reference, indent=1))
        if self.golden_check is not None:
            golden = Path(self.golden_check) / key
            if not golden.is_file():
                raise Preflight(f"no golden digests at {golden}")
            self._charge(0, checks.digest_mismatches(
                self.reference, json.loads(golden.read_text())),
                "differs from the golden digests")

    @property
    def attempted(self):
        return len(self.jobs) * len(self.opts)

    @property
    def failed(self):
        return len({(job, opt) for job, opt, _ in self.failures})

    def metrics(self) -> dict:
        untraced = [j for j in self.jobs if not j["traced"] and j["spans"]]
        traced = [j for j in self.jobs if j["traced"] and j["spans"]]
        if not untraced or (self.trace and not traced):
            return {}
        self.samples = {"jobs": len(traced if self.trace else untraced)}
        if self.trace:
            out = analysis.per_layer(
                [(j["spans"], j["field_bytes"]) for j in traced],
                [j["wall"] for j in untraced], [j["wall"] for j in traced],
                [j["main_s"] for j in untraced])
            out.update({f"ledger.{k}": v for k, v in traced[0]["ledger"].items()})
            return out
        summaries = [analysis.job_summary(j["spans"]) for j in untraced]
        setups = [t for s in summaries for t in s["setup_s"]] + self.setup_samples
        out = analysis.end_to_end(
            [j["wall"] for j in untraced], [j["rss_mb"] for j in untraced],
            summaries, setups)
        self.samples["setup_s"] = len(setups)
        for opt in self.opts:
            times = [s["runs"][opt]["s"] for s in summaries if opt in s["runs"]]
            self.samples[f"run_s.{opt}"] = (analysis.median(times), len(times))
        return out


def load_spec():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise Preflight(f"cannot read BENCHMARK.json: {exc}") from None
    if not (ROOT / "src" / "gowave" / "cli.py").is_file():
        raise Preflight(f"gowave sources not found under {ROOT / 'src'}")
    return spec


def report(run, spec, values, facts) -> dict:
    """Print the human-readable report; return the metrics object."""
    key = "per_layer" if run.trace else "end_to_end"
    print(f"# {run.workload} seed={run.seed} trace={run.trace}: closed loop, "
          f"1 client, {len(run.jobs)} job(s) in {run.elapsed:.1f} s")
    print(f"# machine {json.dumps(facts)}")
    print(f"# computed (not measured) "
          f"{json.dumps(workloads.computed_sizes(run.workload))}")
    for name, sha in sorted((run.reference or {}).items()):
        print(f"digest {name} {sha}")
    metrics = {}
    for m in spec[key]:
        name = m["name"]
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        n = run.samples["setup_s" if name == "setup_s" else "jobs"]
        print(f"{name} = {values[name]:.6g} {m['unit']} (n={n})")
    if not run.trace:
        for opt in run.opts:
            t, n = run.samples[f"run_s.{opt}"]
            print(f"run_s.{opt} = {t:.6g} s (n={n})")
        for opt, err in sorted(run.model_errors.items()):
            print(f"model_error.{opt} = {err!r} dc/c0")
    print(f"failed_frac = {run.failed / max(1, run.attempted):.6g} "
          f"({run.failed}/{run.attempted})")
    for job, opt, reason in run.failures:
        print(f"FAIL job={job} {opt}: {reason}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden-write", metavar="DIR")
    parser.add_argument("--golden-check", metavar="DIR")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        names = list(workloads.WORKLOADS) if args.workload == "all" \
            else [args.workload]
        facts = machine_facts()
        merged, attempted, failed = {}, 0, 0
        for name in names:
            run = Run(name, args.seed, args.seconds, args.trace,
                      args.golden_check)
            run.execute()
            values = run.metrics()
            if not values:
                for job, opt, reason in run.failures:
                    print(f"FAIL job={job} {opt}: {reason}", file=sys.stderr)
                print(f"error: {name}: too few jobs finished to report "
                      "metrics", file=sys.stderr)
                return 1
            metrics = report(run, spec, values, facts)
            if args.golden_write:
                out = Path(args.golden_write)
                out.mkdir(parents=True, exist_ok=True)
                (out / f"{name}-s{args.seed}.json").write_text(
                    json.dumps(run.reference, indent=1))
            prefix = f"{name}." if args.workload == "all" else ""
            merged.update({prefix + k: v for k, v in metrics.items()})
            attempted += run.attempted
            failed += run.failed
    except Preflight as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
