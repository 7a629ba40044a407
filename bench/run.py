"""slidecal benchmark: each workload in fresh worker processes.

    python3 bench/run.py --workload {descent,certify,mesh_io,all} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in worker processes of
its own (``all`` runs the three in turn) with BLAS/OpenMP threads pinned to
1; every metric is printed by name and unit.  The last line of standard
output is the JSON result ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics; for ``all`` each name is prefixed with its workload.  The full
record, with the run context (git SHA, versions, nproc, seed, ``src/`` line
count), goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("descent", "certify", "mesh_io")
RUN_TIMEOUT_S = 170
# An untraced run splits its time over fresh worker processes run one after
# another: a single process's memory layout can shift its speed by 10-15%.
WORKERS = 3

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


def bench_env() -> dict:
    """Worker environment: one BLAS/OpenMP thread, ``src`` and ``bench`` on
    the path, and a bytecode cache kept under ``.bench_out`` (even where the
    caller disabled it) so cold imports time what an installed CLI pays."""
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def git_sha():
    """HEAD of the checkout, or None when the checkout is not a git
    repository (git would otherwise report an enclosing repository)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def warm_bytecode(env, timeout):
    """Fill the bytecode cache before any worker starts, so no worker pays
    compilation in its timings or its peak memory."""
    subprocess.run([sys.executable, "-c", "import slidecal.cli, workloads, tracer"],
                   env=env, cwd=ROOT, capture_output=True, timeout=timeout,
                   check=True)


def run_worker(workload, args, seconds, env, timeout) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workers(workload, args, env) -> dict:
    """Run the workload's workers and merge their samples and checks; one
    more check asks that every worker produced the same outputs."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    n = 1 if args.trace else WORKERS
    warm_bytecode(env, RUN_TIMEOUT_S)
    parts = [run_worker(workload, args, args.seconds / n, env,
                        max(1.0, deadline - time.monotonic())) for _ in range(n)]
    res = dict(parts[0])
    for key in ("pass_s", "setup_s", "import_s"):
        res[key] = [x for p in parts for x in p.get(key, [])]
    same = all(p["digest"] == parts[0]["digest"] for p in parts)
    res["peak_rss_mb"] = max(p["peak_rss_mb"] for p in parts)
    res["attempted"] = sum(p["attempted"] for p in parts) + 1
    res["failed"] = sum(p["failed"] for p in parts) + (not same)
    res["failures"] = [f for p in parts for f in p["failures"]] + (
        [] if same else [f"{workload}: worker processes disagree on the outputs"])
    res["workers"] = n
    return res


def metric(value, unit):
    return {"value": value, "unit": unit}


LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s", "iters": "count",
               "s_per_iter": "s", "final_gap": "1", "contact_area": "1",
               "min_edge": "1", "tris": "count", "bytes": "B",
               "quadrature": "count", "bracket": "count", "none": "count",
               "overhead_s": "s", "spans": "count"}


def run_one(workload, args, env):
    """Run one workload; print its metrics, write its record, and return
    its result object (None if a worker failed)."""
    started = time.perf_counter()
    try:
        res = run_workers(workload, args, env)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        return None

    fail_frac = res["failed"] / res["attempted"]
    if args.trace:
        metrics = {name: metric(value, LAYER_UNITS[name.rsplit(".", 1)[-1]])
                   for name, value in res["layers"].items()}
    else:
        metrics = {
            "wall_s": metric(statistics.median(res["pass_s"]), "s"),
            "setup_s": metric(statistics.median(res["setup_s"]), "s"),
            "import_s": metric(statistics.median(res["import_s"]), "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
    context = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "versions": res["versions"],
        "nproc": os.cpu_count(), "src_lines": src_lines(),
        "passes": len(res["pass_s"]), "setup_reps": len(res["setup_s"]),
        "fail_frac": fail_frac, "failures": res["failures"],
        "elapsed_s": time.perf_counter() - started,
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"context": context, "metrics": metrics,
                                  "samples": res}, indent=1) + "\n")

    print(f"# slidecal benchmark: {workload}, seed {args.seed}, "
          f"{context['passes']} passes, trace {args.trace}")
    print("# context: " + json.dumps(
        {k: context[k] for k in ("git_sha", "versions", "nproc", "src_lines")}))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']!r:>24} {m['unit']}")
    print(f"{'fail_frac':48s} {fail_frac!r:>24} 1")
    for label in res["failures"]:
        print(f"# FAILED: {label}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "slidecal" / "__init__.py").is_file():
        print(f"error: no slidecal sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = bench_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_one(name, args, env)
        if results[name] is None:
            return 1
    if len(results) == 1:
        final = results[names[0]]
    else:   # metric names get the workload as prefix
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
