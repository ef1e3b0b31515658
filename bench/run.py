"""gradleaf benchmark: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The gradleaf CLI runs from ``src`` with
``--seed 0``, one process at a time; ``--seed`` picks the output rows that
the independent check in ``check.py`` re-solves.  A round is one CLI run
followed by that check, and rounds repeat until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics: the CLI process's wall time,
CPU time and peak memory (medians over rounds), and the median wall time of
``gradleaf ladder``.  ``--trace 1`` alternates untraced and traced rounds
(``trace.py``) and reports the per-layer metrics of the traced ones.  The
last line of standard output is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS thread in this process and in every gradleaf process it starts:
# gradleaf's matrices are at most a few hundred entries, and an idle OpenBLAS
# worker spinning on the second core took CPU from the probe and made the
# CLI's CPU time exceed its wall time.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402

WORKLOADS = {
    "verify_p2": {"subcommand": "all", "config": "configs/p2_quartic.json",
                  "flat_unstable": True},
    "lambda_p3": {"subcommand": "lambda", "config": "configs/p3_cubic3d.json",
                  "flat_unstable": False},
    # the oracle stage returns early for Morse index 2 and is still recorded
    # as "pass", so no oracle comparison exists: one failed check per round
    "verify_k2": {"subcommand": "all", "config": "bench/configs/k2_cubic.json",
                  "flat_unstable": False, "known_failure": "oracle_sup_error"},
}
GRADLEAF_SEED = 0
SETUP_RUNS = 3
# The machine's throughput drifts by up to 2x within minutes (shared host):
# CPU time rises with wall time, so the process is not waiting.  End-to-end
# times are therefore scaled by the speed of a probe task timed on the same
# CPU while each process runs (see README.md).  PROBE_REF_S, close to the
# probe's time on a 2-vCPU Intel Xeon VM, fixes the unit: reference seconds.
PROBE_REF_S = 1.0e-3
PROBE_INTERVAL_S = 0.025
PROCESS_TIMEOUT_S = 120
PERTURBATION = 1e-8

# per-layer metric -> unit, as BENCHMARK.json lists them
LAYER_UNITS = {m["name"]: m["unit"] for m in
               json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def probe_task():
    """A fixed mix of interpreter work and small numpy products, like
    gradleaf's own; about 1 ms on the reference machine."""
    total = 0
    for i in range(10000):
        total += i * i % 7
    a = _PROBE_MATRIX
    for _ in range(10):
        a = np.tanh(a @ a.T / 40.0)
    return total


_PROBE_MATRIX = np.random.default_rng(0).standard_normal((40, 40))


class SpeedProbe:
    """Times ``probe_task`` in a thread of this process while a child runs.

    ``speed`` is PROBE_REF_S over the median probe time: below 1 when the
    machine runs slower than it did when PROBE_REF_S was taken.
    """

    def __enter__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run)
        self._thread.start()
        return self

    def _run(self):
        while not self._stop.is_set():
            start = time.perf_counter()
            probe_task()
            self.samples.append(time.perf_counter() - start)
            self._stop.wait(PROBE_INTERVAL_S)

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    @property
    def speed(self):
        return PROBE_REF_S / statistics.median(self.samples)


def launch(cmd, log_path):
    """Run ``cmd`` from the checkout root and wait for it.

    Returns the exit code, the wall time from launch to exit, the CPU time
    and peak resident memory of the process, and the probe's speed over
    the same interval.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log_path, "w") as log, SpeedProbe() as probe:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss": usage.ru_maxrss / 1024.0, "speed": probe.speed}


def gradleaf_cmd(subcommand, config, out_dir, spans=None):
    prefix = ([sys.executable, str(BENCH / "trace.py"), str(spans)] if spans
              else [sys.executable, "-m", "gradleaf.cli"])
    return prefix + [subcommand, "--config", str(ROOT / config),
                     "--out", str(out_dir), "--seed", str(GRADLEAF_SEED)]


def measure_setup(spec, work):
    """SETUP_RUNS launches of `gradleaf ladder`, after one untimed warm-up."""
    times = []
    for i in range(SETUP_RUNS + 1):
        r = launch(gradleaf_cmd("ladder", spec["config"], work / "setup"),
                   work / "setup.log")
        if r["code"] != 0:
            raise RuntimeError(f"gradleaf ladder exited {r['code']}; see {work / 'setup.log'}")
        if i:
            times.append(r)
    return times


def run_round(spec, out_dir, rng, spans=None):
    """One CLI run plus the independent check of what it wrote."""
    shutil.rmtree(out_dir, ignore_errors=True)
    r = launch(gradleaf_cmd(spec["subcommand"], spec["config"], out_dir, spans),
               out_dir.with_suffix(".log"))
    statuses = {}
    manifest = out_dir / "manifest.json"
    if manifest.exists():
        statuses = json.loads(manifest.read_text())["stage_statuses"]
    exit_ok = r["code"] == 0 and bool(statuses) and all(
        s == "pass" for s in statuses.values())
    ops = [("gradleaf_exit", exit_ok, f"exit code {r['code']}, stages {statuses}")]
    if exit_ok:
        ops += check.check_run(out_dir, ROOT / spec["config"], spec["subcommand"],
                               spec["flat_unstable"], rng)
    r["ops"] = ops
    print(f"round: wall {r['wall']:.4f} s, cpu {r['cpu']:.4f} s, "
          f"probe speed {r['speed']:.4f}", file=sys.stderr)
    return r


def self_test(spec, out_dir, work, rng):
    """The check must fail on a copy with one sampled graph value moved by
    PERTURBATION, and on nothing else.  Returns True when it does."""
    baseline = check.check_run(out_dir, ROOT / spec["config"], spec["subcommand"],
                               spec["flat_unstable"], copy.deepcopy(rng))
    bad = work / "perturbed"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(out_dir, bad)
    with open(bad / "graph_G_T.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # the same generator state picks the same rows inside check_run
    first = copy.deepcopy(rng).choice(len(rows) - 1, check.GRAPH_SAMPLES,
                                      replace=False)
    row = rows[1 + int(sorted(first)[0])]
    col = rows[0].index("value_0")
    row[col] = repr(float(row[col]) + PERTURBATION)
    with open(bad / "graph_G_T.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    perturbed = check.check_run(bad, ROOT / spec["config"], spec["subcommand"],
                                spec["flat_unstable"], rng)
    changed = [(a[0], a[1], b[1]) for a, b in zip(baseline, perturbed) if a[1] != b[1]]
    return changed == [("graph_G_T_row", True, False)]


def csv_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def layer_metrics(spans_path):
    """Per-layer counts and times from one traced run's spans."""
    data = np.load(spans_path)
    names = [str(n) for n in data["names"]]
    name, parent = data["name"], data["parent"]
    dur = data["end"] - data["start"]
    counters = json.loads(str(data["counters"]))
    idx = {n: i for i, n in enumerate(names)}

    def mask(*labels):
        return np.isin(name, [idx[n] for n in labels if n in idx])

    def calls(*labels):
        return int(np.count_nonzero(mask(*labels)))

    def seconds(*labels):
        return float(np.sum(dur[mask(*labels)]))

    # a stage that pulls in a prerequisite stage runs it as a nested span:
    # stage walls exclude nested stages
    stage = np.array([n.startswith("pipeline.") for n in names])[name]
    nested = stage & (parent >= 0) & stage[np.maximum(parent, 0)]
    stage_wall = dur.copy()
    np.subtract.at(stage_wall, parent[nested], dur[nested])

    def per_key(label, key):
        distinct = counters.get(f"{key}.distinct", 0)
        return calls(label) / distinct if distinct else 0.0

    solver_mixed = calls("convergence.solver_mixed")
    in_solver = mask("lyapunov_perron.solve_mixed") & (parent >= 0)
    in_solver &= mask("convergence.solver_mixed")[np.maximum(parent, 0)]
    membership = calls("foliation.pair_membership")
    values = {
        "cli.import_s": counters["cli.import_s"],
        "local_model.lipschitz_modulus_s": seconds("local_model.lipschitz_modulus"),
        "local_model.h_calls": calls("local_model.h"),
        "local_model.h_s": seconds("local_model.h"),
        "local_model.dh_calls": calls("local_model.dh"),
        "local_model.dh_s": seconds("local_model.dh"),
        "polynomials.gradient_calls": calls("polynomials.gradient"),
        "polynomials.gradient_s": seconds("polynomials.gradient"),
        "polynomials.hessian_calls": calls("polynomials.hessian"),
        "polynomials.hessian_s": seconds("polynomials.hessian"),
        "curves.interpolate_calls": calls("curves.interpolate"),
        "curves.interpolate_points": counters.get("curves.interpolate_points", 0),
        "curves.interpolate_s": seconds("curves.interpolate"),
        "kernels.convolve_calls": calls("kernels.convolve"),
        "kernels.convolve_s": seconds("kernels.convolve"),
        "kernels.convolver_builds": calls("kernels.convolver_build"),
        "lyapunov_perron.fixed_point_calls": calls("lyapunov_perron.fixed_point"),
        "lyapunov_perron.fixed_point_s": seconds("lyapunov_perron.fixed_point"),
        "lyapunov_perron.picard_iterations":
            counters.get("lyapunov_perron.picard_iterations", 0),
        "lyapunov_perron.solve_mixed_calls": calls("lyapunov_perron.solve_mixed"),
        "lyapunov_perron.reference_curve_calls": calls("lyapunov_perron.reference_curve"),
        "lyapunov_perron.reference_curve_s": seconds("lyapunov_perron.reference_curve"),
        "lyapunov_perron.reference_curve_builds_per_key":
            per_key("lyapunov_perron.reference_curve", "reference_curve"),
        "lyapunov_perron.backward_orbit_calls": calls("lyapunov_perron.backward_orbit"),
        "lyapunov_perron.backward_orbit_solves_per_key":
            per_key("lyapunov_perron.backward_orbit", "backward_orbit"),
        "flow.integrate_forward_calls": calls("flow.integrate_forward"),
        "flow.integrate_forward_s": seconds("flow.integrate_forward"),
        "flow.rhs_evals": counters.get("flow.rhs_evals", 0),
        "oracle.mixed_bvp_calls": calls("oracle.mixed_bvp"),
        "oracle.mixed_bvp_s": seconds("oracle.mixed_bvp"),
        "convergence.checks_s": seconds("convergence.check"),
        "convergence.mixed_cache_hit_ratio":
            1.0 - np.count_nonzero(in_solver) / solver_mixed if solver_mixed else 0.0,
        "foliation.build_pair_s": seconds("foliation.build_pair"),
        "foliation.pair_accept_ratio":
            counters.get("foliation.pair_accepted", 0) / membership if membership else 0.0,
        "foliation.build_atlas_s": seconds("foliation.build_atlas"),
        "foliation.audits_s": seconds("foliation.audit"),
        "reporting.write_s": seconds("reporting.write"),
    }
    for st in ("ladder", "manifolds", "lambda", "foliate", "oracle"):
        values[f"pipeline.{st}_s"] = float(np.sum(stage_wall[mask(f"pipeline.{st}")]))

    # self time: a span's duration minus the time its child spans cover
    self_time = dur.copy()
    child = parent >= 0
    np.subtract.at(self_time, parent[child], dur[child])
    by_name = np.bincount(name, weights=self_time, minlength=len(names))
    return values, sorted(zip(by_name, names), reverse=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gradleaf" / "cli.py").is_file():
        print(f"no gradleaf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # gradleaf processes and the probe thread share one CPU, so the probe
    # times the CPU the process runs on; its ~4 % duty is part of every
    # measured wall time, and of none of the CPU times
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup = [] if args.trace else measure_setup(spec, work)
    plain, traced, layers = [], [], []
    identical = True
    start = time.perf_counter()
    while True:
        plain.append(run_round(spec, work / "run", rng))
        if args.trace:
            spans = work / "spans.npz"
            traced.append(run_round(spec, work / "traced", rng, spans))
            identical &= csv_bytes(work / "run") == csv_bytes(work / "traced")
            layers.append(layer_metrics(spans))
        if time.perf_counter() - start >= args.seconds:
            break

    rounds = plain + traced
    ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in ops if not op[1]]
    for name, _, detail in sorted({(n, ok, d) for n, ok, d in failed}):
        print(f"FAILED {name}: {detail}", file=sys.stderr)
    exited = all(r["ops"][0][1] for r in rounds)
    selftest = exited and self_test(spec, work / "run", work, rng)
    print(f"{args.workload}: {len(rounds)} rounds, {len(ops)} operations, "
          f"{len(failed)} failed; perturbed copy caught: {selftest}; "
          f"traced CSVs identical: {identical}", file=sys.stderr)

    def median(key, rs, scaled=False):
        return statistics.median(r[key] * (r["speed"] if scaled else 1.0) for r in rs)

    if args.trace:
        names = list(LAYER_UNITS)
        values = {n: statistics.median(v[n] for v, _ in layers)
                  for n in names if n != "bench.trace_overhead_s"}
        values["bench.trace_overhead_s"] = (median("wall", traced, True)
                                            - median("wall", plain, True))
        metrics = {n: {"value": values[n], "unit": LAYER_UNITS[n]} for n in names}
        for self_s, label in layers[0][1][:12]:
            print(f"self time {label:34s} {self_s:9.4f} s", file=sys.stderr)
    else:
        metrics = {
            "run_s": {"value": median("wall", plain, True), "unit": "s"},
            "cpu_s": {"value": median("cpu", plain, True), "unit": "s"},
            "peak_rss_mb": {"value": median("rss", plain), "unit": "MB"},
            "setup_s": {"value": median("wall", setup, True), "unit": "s"},
        }
        print(f"unscaled: run {median('wall', plain):.4f} s, cpu {median('cpu', plain):.4f} s, "
              f"setup {median('wall', setup):.4f} s; probe speed {median('speed', plain):.4f}",
              file=sys.stderr)
    for n, m in metrics.items():
        print(f"{n} {m['value']:.6g} {m['unit']}")
    unexpected = [op for op in failed if op[0] != spec.get("known_failure")]
    correct = exited and selftest and identical and not unexpected
    print(json.dumps({"correct": bool(correct), "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
