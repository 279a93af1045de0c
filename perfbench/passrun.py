"""One pass of a workload, run by run.py in a fresh interpreter.

The pass imports permsym, builds every spec of the workload cold
(``build_instance`` plus ``order()``), then runs the jobs in the order the
seed shuffles them to.  Only that much is timed.  The outputs are checked
afterwards, and the pass prints one JSON object on its last line.

    python3 perfbench/passrun.py --workload crosscheck --seed 0 --trace 0
"""

import argparse
import json
import os
import platform
import random
import resource
import sys
import time
from pathlib import Path

import verify
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def _environment(permsym):
    import numpy

    kernels = sys.modules.get("permsym._kernels")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jit_enabled": getattr(kernels, "JIT_ENABLED", None),
        "nproc": len(os.sched_getaffinity(0)),
        "permsym": str(Path(permsym.__file__).resolve().parent),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    t_start = time.perf_counter()
    import permsym

    import_s = time.perf_counter() - t_start
    if not Path(permsym.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"permsym was imported from {permsym.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t = time.perf_counter()
    instances = {}
    for spec in workload.specs:
        instances[spec] = permsym.build_instance(spec)
        instances[spec].group.order()
    setup_s = time.perf_counter() - t

    jobs = list(workload.jobs)
    random.Random(args.seed).shuffle(jobs)
    spent = {"analysis": 0.0, "group_checks": 0.0}
    outputs = []
    for job in jobs:
        t = time.perf_counter()
        try:
            if job.kind == "analysis":
                out = permsym.run_analysis(job.spec, job.p, seed=args.seed, oracle=job.oracle,
                                           instance=instances[job.spec])
            else:
                out = permsym.group_theoretic_checks(instances[job.spec].group, 0, job.p)
        except Exception as exc:  # a job that raises is a failed job, not a failed pass
            out = exc
        spent[job.kind] += time.perf_counter() - t
        outputs.append((job, out))
    total_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    trace = tracer.summary() if tracer else None

    tensors = {}

    def tensor_of(spec):
        if spec not in tensors:
            cc = permsym.two_orbits(instances[spec].group)
            tensors[spec] = permsym.intersection_tensor(cc).tolist()
        return tensors[spec]

    failures = []
    for job, out in outputs:
        try:
            if isinstance(out, Exception):
                problems = [f"raised {out!r}"]
            elif job.kind == "analysis":
                problems = verify.check_analysis(job, out, tensor_of)
            else:
                problems = verify.check_group_checks(job, out)
        except Exception as exc:  # a malformed output fails its job
            problems = [f"checking raised {exc!r}"]
        if problems:
            failures.append(f"{job.kind} {job.spec} p={job.p}: " + "; ".join(problems))

    print(json.dumps({
        "traced": bool(args.trace),
        "import_s": import_s,
        "setup_s": setup_s,
        "analysis_s": spent["analysis"],
        "group_checks_s": spent["group_checks"],
        "total_s": total_s,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "trace": trace,
        "environment": _environment(permsym),
    }))


if __name__ == "__main__":
    main()
