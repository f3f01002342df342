"""Metrics from the spans and process figures of finished jobs.

A span is `[id, name, start, end, parent, job, attrs]` as written by
job.py; parents always precede their children.
"""

import statistics

WAVE_KINDS = ("forward", "forward_keep", "adjoint", "born")
OPTIMIZERS = ("gogn", "nlcg", "lbfgs", "gncg")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def percentile(xs, pct: float) -> float:
    """Linear-interpolation percentile; 0.0 for no samples."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_pct(n: int) -> float:
    """Highest percentile of the ladder with at least ten samples beyond
    it; the median when there are fewer than 20 samples."""
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def self_times(spans) -> dict:
    """{span id: duration minus the time its child spans cover}."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def phases(spans) -> dict:
    """{span id: id of the enclosing harness.setup or harness.run_one
    span, or None}."""
    phase = {}
    for s in spans:
        if s[1] in ("harness.setup", "harness.run_one"):
            phase[s[0]] = s[0]
        else:
            phase[s[0]] = phase.get(s[4]) if s[4] is not None else None
    return phase


def job_summary(spans) -> dict:
    """Set-up times, per-optimizer run time and ledger of one job."""
    runs = {}
    for s in spans:
        if s[1] == "harness.run_one" and "error" not in s[6]:
            a = s[6]
            runs[a["opt"]] = {"s": s[3] - s[2], "forward": a["forward"],
                              "adjoint": a["adjoint"], "born": a["born"]}
    setups = [s for s in spans if s[1] == "harness.setup"]
    return {"setup_s": [s[3] - s[2] for s in setups],
            "setup_solves": setups[0][6].get("setup_solves") if setups else 0,
            "runs": runs}


def ledger_counts(summary) -> dict:
    """Optimizer-phase solve counts of one job, summed over optimizers."""
    out = {k: sum(r[k] for r in summary["runs"].values())
           for k in ("forward", "adjoint", "born")}
    out["total"] = sum(out.values())
    out["setup_total"] = summary["setup_solves"]
    return out


def end_to_end(walls, rss_mb, summaries, setup_samples) -> dict:
    """End-to-end metric values of one run (medians over its jobs)."""
    run_s = [sum(r["s"] for r in s["runs"].values()) for s in summaries]
    rates = [ledger_counts(s)["total"] / t
             for s, t in zip(summaries, run_s) if t > 0]
    return {
        "wall_s": median(walls),
        "setup_s": median(setup_samples),
        "run_s": median(run_s),
        "solves_per_s": median(rates),
        "peak_rss_mb": median(rss_mb),
    }


def per_layer(traced, untraced_walls, traced_walls, untraced_main) -> dict:
    """Per-layer metric values from the traced jobs of one run.

    `traced` is a list of (spans, field_bytes) per traced job. Counts and
    seconds are per job; percentiles pool the calls of every traced job.
    The one forward solve run under tracemalloc is counted but not timed.
    """
    n_jobs = len(traced)
    by_name, own_by_name = {}, {}
    accounted = run_total = clean = 0.0
    for spans, _ in traced:
        own = self_times(spans)
        phase = phases(spans)
        names = {s[0]: s[1] for s in spans}
        for s in spans:
            name = s[1]
            by_name.setdefault(name, []).append(s)
            own_by_name[name] = own_by_name.get(name, 0.0) + own[s[0]]
            if name == "harness.run_one":
                run_total += s[3] - s[2]
            elif phase[s[0]] is not None and names[phase[s[0]]] == "harness.run_one":
                accounted += own[s[0]]
            elif name == "wave.forward" and names.get(s[4]) == "harness.setup":
                clean += s[3] - s[2]

    def timed(name):
        return [s for s in by_name.get(name, []) if not s[6].get("probe")]

    def durations(name):
        return [s[3] - s[2] for s in timed(name)]

    def calls(name):
        return len(by_name.get(name, [])) / n_jobs

    def busy(name):
        return sum(durations(name)) / n_jobs

    def self_s(name):
        return own_by_name.get(name, 0.0) / n_jobs

    def attr_sum(name, key):
        return sum(s[6][key] for s in timed(name))

    out = {}
    for kind in WAVE_KINDS:
        name = f"wave.{kind}"
        d = durations(name)
        pct = tail_pct(len(d))
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = busy(name)
        out[f"{name}.ms_p50"] = percentile(d, 50.0) * 1e3
        out[f"{name}.ms_ptail"] = percentile(d, pct) * 1e3
        out[f"{name}.ptail_pct"] = pct
        out[f"{name}.mcells_per_s"] = attr_sum(name, "work") / sum(d) / 1e6 if d else 0.0
    out["wave.field_mb"] = next((b for _, b in traced if b), 0) / 1e6

    for name in ("problem.gradient", "problem.misfit", "problem.hessvec"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.ms_p50"] = percentile(durations(name), 50.0) * 1e3
        out[f"{name}.self_s"] = self_s(name)
    for name in ("regularizer.build", "regularizer.solve_normal",
                 "regularizer.hess_vec", "gogn.assemble", "gogn.step_woodbury",
                 "optim.linesearch", "optim.curvature.build",
                 "optim.curvature.solve", "optim.curvature.richardson",
                 "fileio.write"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = busy(name)
    out["regularizer.solve_normal.us_p50"] = percentile(
        durations("regularizer.solve_normal"), 50.0) * 1e6
    out["gogn.step_woodbury.ms_p50"] = percentile(
        durations("gogn.step_woodbury"), 50.0) * 1e3

    trials = attr_sum("optim.linesearch", "trials")
    accepts = attr_sum("optim.linesearch", "accepted")
    out["optim.linesearch.trials"] = trials / n_jobs
    out["optim.linesearch.accept_ratio"] = accepts / trials if trials else 0.0
    out["optim.linesearch.trials_per_accept"] = trials / accepts if accepts else 0.0
    out["optim.linesearch.self_s"] = self_s("optim.linesearch")
    for opt in OPTIMIZERS:
        out[f"optim.{opt}.s"] = busy(f"optim.{opt}")
        out[f"optim.{opt}.self_s"] = self_s(f"optim.{opt}")

    out["harness.setup.clean_s"] = clean / n_jobs
    out["harness.setup.probe_s"] = busy("harness.setup.probe")
    out["harness.setup.self_s"] = self_s("harness.setup")
    out["fileio.write.mb"] = attr_sum("fileio.write", "bytes") / n_jobs / 1e6

    out["cli.startup_s"] = median([w - m for w, m in zip(untraced_walls,
                                                         untraced_main)])
    out["trace.overhead_frac"] = median(traced_walls) / median(untraced_walls) - 1.0
    out["trace.accounted_frac"] = accounted / run_total if run_total else 0.0
    return out
