"""One benchmark job: a `gowave compare` (or a set-up probe) in this process.

Run by perfbench/run.py in a fresh child process with PYTHONPATH pointing
at the checkout's `src`:

    python3 perfbench/job.py compare CONFIG OUT RESULT [--trace] [--job N]
    python3 perfbench/job.py setup CONFIG RESULT

The job times the program from outside the package: it replaces public
functions of the gowave modules with wrappers that record spans (name,
start, end, parent, job id and a few attributes) in memory, and writes
them to RESULT as JSON when the program has returned. Untraced jobs wrap
only `harness.prepare_experiment` and `harness.run_one`; traced jobs wrap
every layer boundary the per-layer metrics need.
"""

import argparse
import functools
import json
import os
import sys
import threading
import time
from pathlib import Path

# Set-ups run by one set-up probe; with the set-ups of a run's two compare
# jobs they make setup_s a median of three.
SETUP_REPEATS = 1


class Recorder:
    """In-memory span log; spans nest per thread."""

    def __init__(self, job: int):
        self.job = job
        self.spans = []  # [id, name, start, end, parent, job, attrs]
        self._local = threading.local()

    def call(self, name, fn, args, kwargs, attrs=None, after=None):
        stack = self._local.__dict__.setdefault("stack", [])
        span = [len(self.spans), name, 0.0, 0.0,
                stack[-1] if stack else None, self.job, attrs or {}]
        self.spans.append(span)
        stack.append(span[0])
        span[2] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            span[3] = time.perf_counter()
            span[6]["error"] = f"{type(exc).__name__}: {exc}"
            raise
        else:
            span[3] = time.perf_counter()
            if after is not None:
                after(span[6], args, kwargs, out)
            return out
        finally:
            stack.pop()


def _rebind(orig, wrapper):
    """Point every gowave module attribute bound to `orig` at `wrapper`,
    so names imported with `from .x import f` are wrapped too."""
    for name, mod in list(sys.modules.items()):
        if name == "gowave" or name.startswith("gowave."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)


def _wrap_function(rec, module, attr, span_name, attrs=None, after=None):
    orig = getattr(module, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        a = attrs(args, kwargs) if attrs else None
        return rec.call(span_name, orig, args, kwargs, a, after)

    _rebind(orig, wrapper)


def _wrap_method(rec, cls, attr, span_name, after=None):
    orig = getattr(cls, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        return rec.call(span_name, orig, args, kwargs, None, after)

    setattr(cls, attr, wrapper)


def install(rec: Recorder, trace: bool, field_probe: dict):
    """Install the wrappers. `field_probe` receives the bytes retained by
    the first kept wavefield of a traced job."""
    from gowave import fileio, gogn, harness, optim, problem, regularizer, wave

    def setup_done(attrs, args, kwargs, exp):
        attrs["setup_solves"] = exp.setup_solves

    def run_done(attrs, args, kwargs, out):
        snap = out[1].snapshot()
        attrs.update(forward=snap.forward, adjoint=snap.adjoint,
                     born=snap.born)

    _wrap_function(rec, harness, "prepare_experiment", "harness.setup",
                   after=setup_done)
    _wrap_function(rec, harness, "run_one", "harness.run_one",
                   attrs=lambda a, k: {"opt": a[1]}, after=run_done)
    if not trace:
        return

    def cells_steps(kind_index):
        # padded cells x internal steps of the sweep, from its arguments
        def attrs(args, kwargs):
            model = args[0]
            grid = args[kind_index] if len(args) > kind_index \
                else kwargs["grid"]
            k = wave.cfl_substeps(model, grid)
            bw = grid.boundary_width
            return {"work": (grid.nx + 2 * bw) * (grid.ny + 2 * bw)
                    * k * (grid.nt - 1)}
        return attrs

    fwd_attrs = cells_steps(3)
    orig_forward = wave.forward_solve

    def forward(*args, **kwargs):
        keep = kwargs.get("keep_field", args[5] if len(args) > 5 else False)
        name = "wave.forward_keep" if keep else "wave.forward"
        attrs = fwd_attrs(args, kwargs)
        if keep and not field_probe:
            # Bytes still allocated after the call, less the returned
            # traces: what one kept wavefield holds, whatever it stores.
            import tracemalloc
            attrs["probe"] = True
            tracemalloc.start()
            try:
                out = rec.call(name, orig_forward, args, kwargs, attrs)
                field_probe["bytes"] = (tracemalloc.get_traced_memory()[0]
                                        - out[0].nbytes)
            finally:
                tracemalloc.stop()
            return out
        return rec.call(name, orig_forward, args, kwargs, attrs)

    _rebind(orig_forward, functools.wraps(orig_forward)(forward))
    _wrap_function(rec, wave, "adjoint_solve", "wave.adjoint",
                   attrs=cells_steps(3))
    _wrap_function(rec, wave, "born_solve", "wave.born",
                   attrs=cells_steps(4))

    P = problem.FwiProblem
    _wrap_method(rec, P, "misfit_and_gradients", "problem.gradient")
    _wrap_method(rec, P, "misfit_only", "problem.misfit")
    _wrap_method(rec, P, "gn_hessian_vec", "problem.hessvec")
    _wrap_method(rec, P, "diag_gn_estimate", "harness.setup.probe")

    _wrap_function(rec, regularizer, "build", "regularizer.build")
    S = regularizer.SmoothingOperator
    _wrap_method(rec, S, "solve_normal", "regularizer.solve_normal")
    _wrap_method(rec, S, "hess_vec", "regularizer.hess_vec")

    _wrap_function(rec, gogn, "assemble", "gogn.assemble")
    _wrap_function(rec, gogn, "step_woodbury", "gogn.step_woodbury")

    def searched(attrs, args, kwargs, out):
        attrs["trials"] = out[3]
        attrs["accepted"] = out[1] is not None

    _wrap_function(rec, optim, "linesearch", "optim.linesearch",
                   after=searched)
    C = optim.CurvatureModel
    _wrap_method(rec, C, "__init__", "optim.curvature.build")
    _wrap_method(rec, C, "solve", "optim.curvature.solve")
    _wrap_method(rec, C, "richardson", "optim.curvature.richardson")
    for opt in ("gogn", "nlcg", "lbfgs", "gncg"):
        _wrap_function(rec, optim, f"run_{opt}", f"optim.{opt}")

    def written(attrs, args, kwargs, out):
        attrs["bytes"] = os.path.getsize(args[0])

    for attr in ("write_model", "write_traces", "write_pgm",
                 "write_trace_csv"):
        _wrap_function(rec, fileio, attr, "fileio.write", after=written)


def _compare(args):
    rec = Recorder(args.job)
    field_probe = {}
    from gowave import cli
    install(rec, args.trace, field_probe)
    rc = rec.call("cli.main", cli.main,
                  (["compare", "--config", args.config, "--out", args.out],),
                  {})
    return {"rc": rc, "spans": rec.spans,
            "field_bytes": field_probe.get("bytes")}


def _setup(args):
    rec = Recorder(0)
    from gowave import harness
    install(rec, False, {})
    cfg = harness.load_config(args.config)
    for _ in range(SETUP_REPEATS):
        harness.prepare_experiment(cfg)
    return {"rc": 0, "spans": rec.spans, "field_bytes": None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/job.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("config")
    cmp_.add_argument("out")
    cmp_.add_argument("result")
    cmp_.add_argument("--trace", action="store_true")
    cmp_.add_argument("--job", type=int, default=0)
    setup = sub.add_parser("setup")
    setup.add_argument("config")
    setup.add_argument("result")
    args = parser.parse_args(argv)

    import gowave
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(gowave.__file__).resolve().parent.parent != src:
        print(f"error: imported gowave from {gowave.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = _compare(args) if args.mode == "compare" else _setup(args)
    Path(args.result).write_text(json.dumps(result))
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
