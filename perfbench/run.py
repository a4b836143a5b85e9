"""fraclab benchmark: one closed-loop caller, four workloads, oracle checks.

    python3 perfbench/run.py --workload boundary_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; fraclab is imported from ``src/``.
One process runs the workload's fixed task list in passes, one task after
another, with BLAS pinned to one thread, until the next pass would end after
``--seconds``.  Every output is checked against its oracle (see
``workloads.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: wall time of one pass after the warm-up call, as the sum over
  the task list of each task's median wall time over the untraced passes
  (a slow spell of the machine during one task of one pass does not move it);
* ``setup_s``: median time to import fraclab and scipy, build the inputs and
  run the warm-up call, over this process and ``SETUP_REPEATS`` fresh ones;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced passes and reports per-layer
self times and work counts (``tracer.py``), averaged over the traced passes,
with ``trace.unassigned_s`` (traced pass time outside every span, so that
the self times plus it add up to ``trace.wall_s``) and ``trace.overhead_s``
(mean traced minus mean untraced pass time).  The spans are written to
``.perfbench/spans-<workload>-seed<seed>.npz``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 2
CHILD_TIMEOUT_S = 120


def setup(workload, seed):
    """Import fraclab and scipy, build the inputs and warm up; timed."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.build(workload, seed)
    wl.warmup()
    return time.perf_counter() - t0, wl


def run_pass(tasks, tracer=None, first_task=0):
    """Run every task once; return (pass wall seconds, outputs, per-task
    wall seconds)."""
    outputs, times = [], []
    start = time.perf_counter()
    for j, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = first_task + j
        t0 = time.perf_counter()
        try:
            outputs.append(task.run())
        except Exception as exc:  # a task that raises is a failed task
            outputs.append(exc)
        times.append(time.perf_counter() - t0)
    return time.perf_counter() - start, outputs, times


def check_pass(tasks, outputs):
    """[(task, ok, detail)] for one pass."""
    results = []
    for task, out in zip(tasks, outputs):
        if isinstance(out, Exception):
            ok, detail = False, f"raised {type(out).__name__}: {out}"
        else:
            ok, detail = task.check(out)
        results.append((task, ok, detail))
    return results


def child_setup_times(workload, seed):
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def machine_facts(seed):
    import fraclab
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_active": bool(fraclab.NUMBA_ACTIVE),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "seed": seed,
    }


def traced_metrics(passes, untraced_walls):
    """Per-layer metrics averaged over the traced passes."""
    from tracer import CALL_COUNTS, SPANS, WORK_COUNTS

    n = len(passes)
    metrics = {}
    for i, span in enumerate(SPANS):
        metrics[f"{span}.self_s"] = (
            sum(p["self_s"][i] for p in passes) / n, "s")
    for span in CALL_COUNTS:
        i = SPANS.index(span)
        metrics[f"{span}.calls"] = (sum(int(p["calls"][i]) for p in passes) / n,
                                    "count")
    for name in WORK_COUNTS:
        metrics[name] = (sum(p["counts"][name] for p in passes) / n, "count")
    wall = sum(p["wall"] for p in passes) / n
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.unassigned_s"] = (
        sum(p["wall"] - p["spanned"] for p in passes) / n, "s")
    metrics["trace.overhead_s"] = (
        wall - sum(untraced_walls) / len(untraced_walls), "s")
    return metrics


def measure(wl, seconds, trace):
    """Run passes for ``seconds``; return (untraced pass walls, per-task
    times of the untraced passes, traced pass records, per-pass check
    results, outputs identical under tracing)."""
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    untraced, task_times, traced, checks = [], [], [], []
    reference = None
    identical = True
    start = time.perf_counter()
    while True:
        is_traced = trace and len(untraced) > len(traced)
        if is_traced:
            first = tracer.span_count
            tracer.counts = Counter()
            with tracer:
                wall, outputs, _ = run_pass(wl.tasks, tracer,
                                            len(checks) * len(wl.tasks))
            self_s, calls, spanned = tracer.self_times(first)
            traced.append({"wall": wall, "self_s": self_s, "calls": calls,
                           "spanned": spanned, "counts": tracer.counts})
            identical &= repr(outputs) == reference
        else:
            wall, outputs, times = run_pass(wl.tasks)
            untraced.append(wall)
            task_times.append(times)
            if reference is None:
                reference = repr(outputs)
        checks.append(check_pass(wl.tasks, outputs))
        done = not trace or traced
        if done and time.perf_counter() - start + wall > seconds:
            break
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.npz")
    return untraced, task_times, traced, checks, identical


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and exit (used for setup_s)")
    args = parser.parse_args(argv)

    if not (SRC / "fraclab" / "__init__.py").is_file():
        print(f"error: no fraclab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # numpy is first imported by setup(), after this, and set-up processes
    # inherit the setting.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    setup_s, wl = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import fraclab

    if Path(fraclab.__file__).resolve().parent != SRC / "fraclab":
        print(f"error: fraclab imported from {fraclab.__file__}",
              file=sys.stderr)
        return 2

    untraced, task_times, traced, checks, identical = measure(
        wl, args.seconds, bool(args.trace))
    attempted = sum(len(c) for c in checks)
    failures = [(t, detail) for c in checks for t, ok, detail in c if not ok]
    unexpected = [f for f in failures if f[0].defect is None]
    correct = not unexpected and identical

    if args.trace:
        metrics = traced_metrics(traced, untraced)
    else:
        setups = [setup_s] + child_setup_times(args.workload, args.seed)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (sum(statistics.median(t) for t in zip(*task_times)),
                       "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak, "MB"),
        }

    print(json.dumps({"machine": machine_facts(args.seed)}))
    print(f"workload {wl.name}, seed {args.seed}: {len(wl.tasks)} tasks, "
          f"untraced pass walls {[round(w, 4) for w in untraced]}"
          + (f", traced {[round(p['wall'], 4) for p in traced]}"
             if traced else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    print(f"  failed_frac {len(failures) / attempted:.4f} "
          f"({len(failures)} of {attempted} task runs)")
    seen = set()
    for task, detail in failures:
        if task.name not in seen:
            seen.add(task.name)
            tag = f"known defect {task.defect}" if task.defect else "UNEXPECTED"
            print(f"  FAILED [{tag}] {task.name}: {detail}")
    if not identical:
        print("  traced outputs differ from untraced outputs")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
