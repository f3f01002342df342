"""Output checks on one finished `gowave compare` job.

Every check failure is charged to the optimizer runs it concerns: a file
named `<optimizer>_...` to that optimizer, any shared file (manifest,
target, geometry) or a crashed job to every optimizer of the job.
"""

import csv
import hashlib
from pathlib import Path

import workloads

ARTIFACT_PATTERNS = ("*_trace.csv", "*.modl", "*.pgm", "manifest.cfg")


def digests(out_dir) -> dict:
    """{file name: SHA-256 hex} of the artifacts the determinism contract
    covers."""
    out = Path(out_dir)
    names = sorted({p.name for pat in ARTIFACT_PATTERNS for p in out.glob(pat)})
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest()
            for n in names}


def digest_mismatches(got: dict, want: dict) -> list:
    """Names of artifacts missing on one side or differing in content."""
    return sorted(n for n in set(got) | set(want) if got.get(n) != want.get(n))


def owners(names, opts) -> dict:
    """{optimizer: [artifact names]} charging each name to its optimizer,
    or to all of them when it belongs to none."""
    charged = {}
    for name in names:
        prefix = name.split("_", 1)[0]
        for opt in ([prefix] if prefix in opts else opts):
            charged.setdefault(opt, []).append(name)
    return charged


def manifest_results(path) -> dict:
    """The `[results]` section of a manifest as {key: raw value}."""
    results, inside = {}, False
    for line in Path(path).read_text().splitlines():
        if line.startswith("["):
            inside = line.strip() == "[results]"
        elif inside and " = " in line:
            key, value = line.split(" = ", 1)
            results[key.strip()] = value.strip()
    return results


def objectives(trace_csv) -> list:
    with open(trace_csv, newline="") as fh:
        return [float(row["objective"]) for row in csv.DictReader(fh)]


def check_run(workload, opt, out_dir, results, run_span) -> list:
    """Problems with one optimizer run of a job; empty when it passes.

    `results` is the manifest's `[results]` section and `run_span` the
    job's `harness.run_one` span for this optimizer (None if missing).
    """
    if run_span is None:
        return ["harness.run_one never returned"]
    attrs = run_span[6]
    if "error" in attrs:
        # includes the gradient-only accounting check of the harness
        return [f"raised {attrs['error']}"]
    status = results.get(f"{opt}_status", "missing")
    if status.startswith("failed"):
        return [f"status {status}"]
    problems = []
    total = attrs["forward"] + attrs["adjoint"] + attrs["born"]
    if results.get(f"{opt}_solves") != str(total):
        problems.append(f"manifest solves {results.get(f'{opt}_solves')} "
                        f"!= ledger {total}")
    budget = int(workloads.values(workload, workloads.DEFAULT_SEED)
                 [("run", "budget")])
    top = budget + workloads.max_iteration_cost(workload, opt)
    if not budget <= total < top:
        problems.append(f"ledger total {total} outside [{budget}, {top})")
    trace = Path(out_dir) / f"{opt}_trace.csv"
    if not trace.is_file():
        return problems + [f"{trace.name} missing"]
    f = objectives(trace)
    if any(b >= a for a, b in zip(f, f[1:])):
        problems.append("objective trace not strictly decreasing")
    return problems
