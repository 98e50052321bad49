"""Benchmark entry point.

    python3 bench/run.py --workload train-inproc --seed 1 --seconds 8 --trace 0

Runs one workload of ``BENCHMARK.json`` from the repository root (the
program is imported from ``src/``; nothing is installed or built).  With
``--trace 0`` it prints every end-to-end metric, with ``--trace 1`` every
per-layer metric; the human-readable table, a ``record`` line with the
environment and the workload's own figures, and last the result
object ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check exits with code 1 after printing the result.

The module body only sets up ``sys.path``: the multiproc backend spawns
its workers with the ``spawn`` start method, which re-imports this file
in every worker, so the run itself stays under the ``__main__`` guard.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

WORKLOADS = ("train-inproc", "train-multiproc", "serve-churn")
#: Environment variables that set BLAS / OpenMP thread counts.  They are
#: recorded, never set.
THREAD_VAR_PREFIXES = ("OPENBLAS_", "OMP_", "MKL_")
#: Traced runs leave their Chrome trace here (git-ignored).
TRACE_DIR = os.path.join(ROOT, ".bench_out")


def git_sha(root: str):
    """The checked-out commit, read from ``.git`` without running git;
    ``None`` outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version",
                                                  "openblas configuration")}
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        blas = None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_vars": {k: v for k, v in sorted(os.environ.items())
                        if k.startswith(THREAD_VAR_PREFIXES)},
        "git_sha": git_sha(ROOT),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 smoke: bool):
    import workloads as w

    sizes = w.SMOKE if smoke else w.FULL
    trace_path = (os.path.join(TRACE_DIR, f"{name}-seed{seed}.trace.json")
                  if traced else None)
    if name == "serve-churn":
        return w.run_serve(sizes, seed, seconds, traced, trace_path)
    return w.run_train(sizes, seed, seconds, traced,
                       multiproc=(name == "train-multiproc"),
                       trace_path=trace_path)


def stop_helper_processes() -> None:
    """End every process the run started and wait for each, so none
    outlives the command.

    The multiproc backend joins its own workers on shutdown, and parked
    ones leave with ``WORKER_POOL.clear()``.  Creating its shared-memory
    segments also starts ``multiprocessing``'s resource tracker, which
    otherwise ends only after this process has exited; it is stopped and
    reaped here, after every segment is unlinked (an unlink after this
    point would start a new one).
    """
    import gc

    multiproc = sys.modules.get("repro.distributed.multiproc")
    if multiproc is not None:
        multiproc.WORKER_POOL.clear()
    gc.collect()  # runs the finalizer of any backend left unclosed
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def result_line(outcome, traced: bool) -> dict:
    """The result object; metrics in BENCHMARK.json order."""
    import workloads as w

    table = outcome.layers if traced else outcome.metrics
    names = w.LAYER_UNITS if traced else w.END_TO_END_UNITS
    return {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(table[name][0]),
                           "unit": table[name][1]}
                    for name in names},
    }


def print_report(name: str, args, outcome) -> None:
    print(f"workload {name}  seed {args.seed}  trace {args.trace}")
    if args.trace:
        for metric, (value, unit) in sorted(outcome.layers.items()):
            print(f"  {metric:<34} {value:>14.6g} {unit}")
    else:
        print(f"  {'metric':<24} {'value':>14} {'unit':<9} samples")
        for metric, (value, unit, n) in outcome.metrics.items():
            print(f"  {metric:<24} {value:>14.6g} {unit:<9} {n}")
        print("  per-workload figures:")
        for metric, (value, unit, n) in outcome.details.items():
            print(f"  {metric:<24} {value:>14.6g} {unit:<9} {n}")
    for check, ok, detail in outcome.checks:
        if not ok:
            print(f"  CHECK FAILED: {check} ({detail})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured wall time per run (a floor: minimum "
                             "sample counts are always met)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny dataset and sizes (self-tests)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources under {ROOT}/src/repro",
              file=sys.stderr)
        return 2

    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.smoke)
    finally:
        stop_helper_processes()
    print_report(args.workload, args, outcome)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": environment(),
              "checks": len(outcome.checks),
              "details": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in outcome.details.items()},
              **outcome.notes}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(outcome, bool(args.trace))))
    sys.stdout.flush()
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
