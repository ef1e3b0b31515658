"""Run the full pipeline on every reference config, plus the lambda stage
alone on p3_cubic3d.

Usage: python scripts/run_references.py [OUT_DIR]

Each run writes into its own subdirectory of OUT_DIR: the config's name for
``gradleaf all``, and ``p3_cubic3d_lambda`` for ``gradleaf lambda``.  Two
such trees compare run by run with ``scripts/compare_outputs.py``.  Exits
0 when every run does, else with the largest exit code among the runs.
"""

import sys
from pathlib import Path

from gradleaf.cli import main

ROOT = Path(__file__).resolve().parent.parent
#: (subcommand, config, output subdirectory) run after the full pipelines
EXTRA_RUNS = (("lambda", ROOT / "configs" / "p3_cubic3d.json", "p3_cubic3d_lambda"),)


def run_all(out_root):
    runs = [("all", config, config.stem)
            for config in sorted((ROOT / "configs").glob("*.json"))]
    codes = {}
    for subcommand, config, name in runs + list(EXTRA_RUNS):
        out = Path(out_root) / name
        print(f"== {subcommand} {config.name} -> {out}")
        codes[name] = main([subcommand, "--config", str(config),
                            "--out", str(out), "--seed", "0"])
    return codes


if __name__ == "__main__":
    out_root = sys.argv[1] if len(sys.argv) > 1 else "out"
    codes = run_all(out_root)
    bad = {k: v for k, v in codes.items() if v != 0}
    if bad:
        print(f"failures: {bad}")
        sys.exit(max(bad.values()))
    print("all reference runs passed")
