"""Batch front end: ``gradleaf SUBCOMMAND --config CONFIG.json [--out DIR]
[--seed N]``.

A subcommand runs one pipeline stage and the stages it needs (``all`` runs
every stage), writing CSV artifacts and a run manifest into ``--out``.  The
Picard tolerance is the constant ``lyapunov_perron.PICARD_TOL``, recorded
as ``tol`` in the manifest.  Exit codes, by the class of the error: 0 all
checks pass, 2 a quantitative bound failed beyond its tolerance budget
(``BoundViolation``), 3 configuration error (``ConfigError``, an ``--out``
that cannot be a directory, or a usage error), 4 any other gradleaf error
(solver non-convergence), 5 internal error (any other exception, such as an
internal guard's ``ValueError``: a bug).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from . import pipeline
from .errors import BoundViolation, ConfigError, GradleafError
from .problems import load_problem
from .reporting import config_hash, write_json

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


class _Parser(argparse.ArgumentParser):
    """Usage errors exit ``EXIT_CONFIG``, not argparse's 2 (``EXIT_BOUND``)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"argument --seed: must not be negative: {args.seed}")
    out_dir = Path(args.out)
    try:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make the output directory {out_dir}: "
                              f"{exc.strerror}") from exc
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
        if out_dir.is_dir():
            write_json(out_dir / "error.json", record)
        print(json.dumps(record), file=sys.stderr)
        return code
    for stage, status in state.statuses.items():
        print(f"{stage}: {status}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def process_main():
    """``main`` as the command-line process runs it (``python -m
    gradleaf.cli`` and the ``gradleaf`` command): the exit code.

    When ``main`` returns, every output is written and closed, and what is
    left on the heap, mostly the objects that importing numpy and gradleaf
    made, lives until the process exits.  ``gc.freeze`` moves it to the
    permanent generation, which the collections of interpreter shutdown
    skip; in-process callers of ``main`` freeze nothing.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(process_main())
