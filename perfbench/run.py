"""Pipeline benchmark for permsym.

Runs one workload for about --seconds seconds as a series of passes, each
in a fresh interpreter (run.py itself never imports permsym), one after
another, single-threaded.  Prints the metrics of every pass as medians with
their sample count, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 every pass is untraced and the metrics are the end-to-end
ones.  With --trace 1 traced and untraced passes alternate; the metrics are
the per-layer ones, taken from the traced passes.

Run from the repository root:

    python3 perfbench/run.py --workload psl2-496 --seed 0 --seconds 44 --trace 0
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import SPANS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
RUN_LIMIT_S = 170  # no pass starts or runs past this point of a run

THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "NUMBA_NUM_THREADS",
)

# Spans that some workloads never enter are reported as a share of the traced
# pass rather than in seconds, so that no time metric is a constant zero.
SHARE_SPANS = {
    "perm.action_on_cosets", "perm.elements", "perm.group_theoretic_checks",
    "endo.schur_vs_centralizer", "endo.centralizer_oracle", "endo.hecke_check",
}

END_TO_END = ("setup_s", "analysis_s", "total_s", "peak_rss_mb")

UNITS = (("_calls", "count"), ("_s", "s"), ("_mb", "MB"), ("_share", "fraction"),
         ("_frac", "fraction"), ("_ops", "ops"))


def unit_of(metric):
    return next(unit for suffix, unit in UNITS if metric.endswith(suffix))


def _child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERMSYM_")}
    env.update({v: "1" for v in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_pass(workload, seed, traced, timeout):
    """One pass in a fresh interpreter; returns (result or None, error)."""
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"pass timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return None, f"pass exited with code {proc.returncode}: " + " | ".join(tail)
    return json.loads(lines[-1]), None


def layer_metrics(result):
    trace = result["trace"]
    out = {}
    for name, _, _ in SPANS:
        if name in trace["absent"]:
            continue
        out[f"{name}_calls"] = trace["calls"][name]
        if name in SHARE_SPANS:
            out[f"{name}_share"] = trace["inclusive_s"][name] / result["total_s"]
        else:
            out[f"{name}_s"] = trace["inclusive_s"][name]
            out[f"{name}_self_s"] = trace["self_s"][name]
    out["kernels.elim_ops"] = trace["elim_ops"]
    return out


def _describe(values, unit):
    return (f"{median(values):.4f} {unit}  median of {len(values)} "
            f"(min {min(values):.4f}, max {max(values):.4f})")


def main():
    ap = argparse.ArgumentParser(description="permsym pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=44)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "permsym" / "__init__.py").is_file():
        sys.exit(f"permsym sources not found under {ROOT / 'src'}; run from a full checkout")

    workload = WORKLOADS[args.workload]
    passes, errors, walls = [], [], []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        t0 = time.monotonic()
        result, error = run_pass(args.workload, args.seed, traced,
                                 RUN_LIMIT_S - (t0 - start))
        walls.append(time.monotonic() - t0)
        if result is None:
            errors.append(error)
            break
        passes.append(result)
        elapsed = time.monotonic() - start
        if elapsed + max(walls) > RUN_LIMIT_S:
            break
        # start another pass only if it is expected to end within --seconds
        if len(passes) >= MIN_PASSES and elapsed + median(walls) > args.seconds:
            break

    attempted = len(workload.jobs) * (len(passes) + len(errors))
    failed = len(workload.jobs) * len(errors) + sum(len(p["failures"]) for p in passes)
    for failure in sorted({f for p in passes for f in p["failures"]}):
        print(f"FAILED {failure}")
    for error in errors:
        print(f"FAILED pass: {error}", file=sys.stderr)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not untraced or (args.trace and not traced):
        sys.exit("no pass completed; no metrics to report")

    env = passes[0]["environment"]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"({len(traced)} traced), {attempted} jobs attempted, {failed} failed")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    samples = {name: [p[name] for p in untraced] for name in END_TO_END + ("group_checks_s",)}
    for name in END_TO_END:
        print(f"{name:15s} {_describe(samples[name], unit_of(name))}")
    if any(j.kind == "group_checks" for j in workload.jobs):
        print(f"{'group_checks_s':15s} {_describe(samples['group_checks_s'], 's')}")
    else:
        print(f"{'group_checks_s':15s} not measured: the workload has no group checks")
    print(f"{'failed_frac':15s} {failed / attempted:.4f} fraction  ({failed} of {attempted} jobs)")

    if args.trace:
        layers = [layer_metrics(p) for p in traced]
        metrics = {name: median([m[name] for m in layers]) for name in layers[0]}
        metrics["import_s"] = median([p["import_s"] for p in passes])
        metrics["trace.overhead_frac"] = (
            median([p["total_s"] for p in traced]) / median(samples["total_s"]) - 1.0)
        trace = traced[0]["trace"]
        if trace["absent"]:
            print("absent spans (no longer in permsym): " + ", ".join(trace["absent"]))
        parents = {}
        for parent, child, _ in trace["parents"]:
            parents.setdefault(child, []).append(parent or "-")
        print(f"{'span':36s} {'calls':>8s} {'inclusive_s':>12s} {'self_s':>10s}  parents")
        for name in sorted(trace["calls"], key=lambda n: -trace["inclusive_s"][n]):
            print(f"{name:36s} {trace['calls'][name]:8d} {trace['inclusive_s'][name]:12.4f} "
                  f"{trace['self_s'][name]:10.4f}  {', '.join(parents.get(name, []))}")
    else:
        metrics = {name: median(samples[name]) for name in END_TO_END}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
