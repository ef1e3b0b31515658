"""Batch front end.

Subcommands run the pipeline stages on a problem config and emit CSV/JSON
artifacts plus a run manifest.  Exit codes: 0 all checks pass, 2 a
quantitative bound failed beyond its tolerance budget, 3 configuration
error (a ``ValueError`` counts as one), 4 solver non-convergence, 5 internal
error (any other exception, i.e. a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pipeline
from .errors import BOUND_ERRORS, CONFIG_ERRORS, SOLVER_ERRORS, GradleafError
from .problems import load_problem
from .reporting import config_hash

EXIT_OK = 0
EXIT_BOUND = 2
EXIT_CONFIG = 3
EXIT_SOLVER = 4
EXIT_INTERNAL = 5

SUBCOMMANDS = ("spectral", "ladder", "manifolds", "lambda", "foliate",
               "oracle", "all")


def exit_code_for(error):
    if isinstance(error, BOUND_ERRORS):
        return EXIT_BOUND
    if isinstance(error, CONFIG_ERRORS):
        return EXIT_CONFIG
    if isinstance(error, SOLVER_ERRORS):
        return EXIT_SOLVER
    if isinstance(error, GradleafError):
        return EXIT_SOLVER
    if isinstance(error, ValueError):
        return EXIT_CONFIG
    return EXIT_INTERNAL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gradleaf",
        description="Local invariant manifolds, time-T graph families, and "
                    "stable foliations for gradient flows near hyperbolic "
                    "critical points.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS,
                        help="pipeline stage to run ('all' runs every stage)")
    parser.add_argument("--config", required=True, help="problem config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="fixed-point tolerance")
    parser.add_argument("--stage", default=None,
                        help="with 'all': restrict to this single stage")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        problem = load_problem(args.config)
        digest = config_hash(args.config)
        if args.subcommand == "all":
            stages = (args.stage,) if args.stage else ("all",)
        else:
            stages = (args.subcommand,)
        state = pipeline.run(problem, out_dir, stages=stages, tol=args.tol,
                             seed=args.seed, config_digest=digest)
    except Exception as exc:  # emit a machine-readable error record
        code = exit_code_for(exc)
        record = {
            "error": getattr(exc, "code", "error"),
            "type": type(exc).__name__,
            "message": str(exc),
            "exit_code": code,
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "error.json", "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(json.dumps(record), file=sys.stderr)
        return code
    for stage, status in state.statuses.items():
        print(f"{stage}: {status}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
