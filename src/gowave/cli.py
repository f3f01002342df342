"""Command-line entry point.

Subcommands:

* ``make-data``: synthesize target, geometry, and noisy observations into
  a directory for external consumption.
* ``invert``: run a single optimizer on the configured experiment.
* ``compare``: run every configured optimizer on identical data.
* ``render``: convert a stored model grid to a PGM image.

Exit codes: 0 on success, 2 for configuration problems (including bad
arguments and unreadable input files), 3 for numerical failures.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import fileio
from .harness import (ConfigError, ExperimentConfig, load_config,
                      run_comparison, write_data_dir, OPTIMIZER_NAMES)


def _experiment_flags(sub):
    sub.add_argument("--config", metavar="PATH",
                     help="experiment config file (defaults used if omitted)")
    sub.add_argument("--seed", type=int, metavar="INT",
                     help="override the noise seed")
    sub.add_argument("--out", metavar="DIR", required=True,
                     help="output directory")
    sub.add_argument("--sigma", type=float, metavar="FLOAT",
                     help="override the noise level")
    sub.add_argument("--budget", type=int, metavar="INT",
                     help="override the PDE-solve budget per run")
    return sub


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gowave",
        description="matrix-free waveform-inversion benchmark toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    _experiment_flags(sub.add_parser(
        "make-data", help="write target, geometry, and observed data"))
    _experiment_flags(sub.add_parser("invert", help="run one optimizer")).add_argument(
        "--optimizer", choices=OPTIMIZER_NAMES, required=True, help="optimizer to run")
    _experiment_flags(sub.add_parser(
        "compare", help="run all configured optimizers")).add_argument(
        "--threads", type=int, metavar="INT", help="run optimizers in parallel threads")

    render = sub.add_parser("render", help="render a model grid to PGM")
    render.add_argument("grid", metavar="GRID", help="input model file")
    render.add_argument("vrange", type=float, metavar="RANGE",
                        help="value mapped to full black/white")
    render.add_argument("--out", metavar="PATH",
                        help="output image (default: input with .pgm suffix)")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, noise_seed=args.seed)
    if getattr(args, "sigma", None) is not None:
        cfg = replace(cfg, sigma=args.sigma)
    if getattr(args, "budget", None) is not None:
        cfg = replace(cfg, budget=args.budget)
    if getattr(args, "threads", None) is not None:
        cfg = replace(cfg, threads=args.threads)
    if getattr(args, "optimizer", None) is not None:
        cfg = replace(cfg, optimizers=(args.optimizer,))
    return cfg.validate()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "render":
            fileio.write_pgm(args.out or Path(args.grid).with_suffix(".pgm"),
                             fileio.read_model(args.grid).as_2d(), args.vrange)
            return 0
        cfg = _load(args)
        if args.command == "make-data":
            exp = write_data_dir(cfg, args.out)
            print(f"wrote {exp.geom.n_sources} seismogram files, target, "
                  f"geometry, and manifest to {args.out}")
            return 0
        results = run_comparison(cfg, args.out)
        ok = 0
        for name in cfg.optimizers:
            result = results[name]
            if result is None:
                print(f"{name}: failed (see manifest)", file=sys.stderr)
                continue
            ok += 1
            last = result.records[-1]
            print(f"{name}: {result.status} after {last.iter} iterations, "
                  f"{result.solves} solves, model error {last.model_error:.6g}")
        return 0 if ok else 3
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
