"""Batch front end: ``gradleaf SUBCOMMAND --config CONFIG.json [--out DIR]
[--seed N]``.

A subcommand runs one pipeline stage and the stages it needs (``all`` runs
every stage), writing CSV artifacts and a run manifest into ``--out``.  The
Picard tolerance is the constant ``lyapunov_perron.PICARD_TOL``, recorded
as ``tol`` in the manifest.  Exit codes, by the class of the error: 0 all
checks pass, 2 a quantitative bound failed beyond its tolerance budget
(``BoundViolation``), 3 configuration error (``ConfigError``), 4 any other
gradleaf error (solver non-convergence), 5 internal error (any other
exception, such as an internal guard's ``ValueError``: a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pipeline
from .errors import BoundViolation, ConfigError, GradleafError
from .problems import load_problem
from .reporting import config_hash

EXIT_OK = 0
EXIT_BOUND = 2
EXIT_CONFIG = 3
EXIT_SOLVER = 4
EXIT_INTERNAL = 5

SUBCOMMANDS = pipeline.STAGES + ("all",)


def exit_code_for(error):
    if isinstance(error, BoundViolation):
        return EXIT_BOUND
    if isinstance(error, ConfigError):
        return EXIT_CONFIG
    if isinstance(error, GradleafError):
        return EXIT_SOLVER
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
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        problem = load_problem(args.config)
        digest = config_hash(args.config)
        state = pipeline.run(problem, out_dir, stages=(args.subcommand,),
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
