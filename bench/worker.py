"""One workload in one process: set up, run timed passes, check outputs.

Started by ``run.py`` with thread counts pinned and ``src`` on the path;
prints one JSON object as its last line.  Untraced runs also time
``import slidecal.cli`` in fresh interpreters between passes.  With
``--trace 1`` it alternates untraced and traced cycles: the untraced passes
give the baseline for the tracing overhead, each traced cycle (set-up plus
pass) gives one sample of every per-layer metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

import workloads
from tracer import Tracer

SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 200
SETUP_MIN_S = 0.5      # tiny set-ups repeat until they have run this long
MIN_PASSES = 2
IMPORT_SAMPLES = 8     # cold imports timed between the passes of a worker
IMPORT_PROBE = ("import time; t = time.perf_counter(); import slidecal.cli; "
                "print(repr(time.perf_counter() - t))")
MAX_FAILURES_LISTED = 10


class Tally:
    """Checks attempted and failed over a run, with the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_LISTED:
                self.failures.append(label)

    def add_all(self, checks):
        for label, ok in checks:
            self.add(label, ok)


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def measure_setup(wl, seed):
    times = []
    while True:
        inputs = None      # release the previous inputs before building anew
        inputs, dt = timed(wl.setup, seed)
        times.append(dt)
        if len(times) >= SETUP_MIN_REPS and (sum(times) >= SETUP_MIN_S
                                             or len(times) >= SETUP_MAX_REPS):
            return inputs, times


def checked_pass(wl, inputs, workdir, tally, reference):
    """Run one timed pass, check it, and compare its digest against the
    first pass of the run.  Returns the pass time in seconds.

    Each pass writes into a fresh directory that is removed afterwards:
    overwriting the previous pass's files instead makes ext4 flush them on
    close, which more than triples the time of ``write_off``."""
    passdir = tempfile.mkdtemp(dir=workdir)
    try:
        outputs, dt = timed(wl.run, inputs, passdir)
    finally:
        shutil.rmtree(passdir, ignore_errors=True)
    tally.add_all(wl.checks(outputs))
    digest = wl.digest(outputs)
    if reference:
        tally.add(f"{wl.name}: pass repeats the first pass bit for bit",
                  digest == reference[0])
    else:
        reference.append(digest)
    return dt


def digest_id(reference) -> str:
    """Short hash of the first pass's outputs, compared across workers."""
    return hashlib.sha256("\n".join(reference[0]).encode()).hexdigest()[:16]


def import_time() -> float:
    """Seconds for ``import slidecal.cli`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_plain(wl, inputs, workdir, seconds, tally):
    """Timed passes for ``seconds``.  Between passes, cold imports are timed
    at an even pace over the same window, so their median sees the same
    machine as the passes do."""
    reference, times, imports = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        times.append(checked_pass(wl, inputs, workdir, tally, reference))
        while (len(imports) < IMPORT_SAMPLES and time.perf_counter() - start
               >= len(imports) * seconds / IMPORT_SAMPLES):
            imports.append(import_time())
    return {"pass_s": times, "import_s": imports, "digest": digest_id(reference)}


def run_traced(wl, seed, inputs, workdir, seconds, tally, spans_path):
    tracer = Tracer(workloads.traced_functions())
    reference, plain, traced, cycles, samples, counts = [], [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        dt = checked_pass(wl, inputs, workdir, tally, reference)
        plain.append(dt)

        tracer.counts.clear()
        lo = tracer.mark()
        tracer.install()
        try:
            traced_inputs = wl.setup(seed)
            mid = tracer.mark()
            dt = checked_pass(wl, traced_inputs, workdir, tally, reference)
        finally:
            tracer.uninstall()
        traced_inputs = None
        hi = tracer.mark()
        traced.append(dt)
        cycles.append({"setup_spans": [lo, mid], "pass_spans": [mid, hi]})
        samples.append(tracer.phase_stats(lo, hi))
        counts.append({k: tracer.counts.get(k, 0) for k in workloads.COUNT_NAMES})

    calls = [{f: s["calls"] for f, s in sample.items()} for sample in samples]
    tally.add(f"{wl.name}: traced call counts repeat exactly",
              all(c == calls[0] for c in calls))
    tally.add(f"{wl.name}: traced exact counts repeat exactly",
              all(c == counts[0] for c in counts))

    layers = {}
    for f in tracer.names:
        layers[f"{f}.calls"] = calls[0][f]
        layers[f"{f}.s"] = statistics.median([s[f]["s"] for s in samples])
        layers[f"{f}.self_s"] = statistics.median([s[f]["self_s"] for s in samples])
    layers.update(counts[0])
    iters = counts[0]["evolve.descend.iters"]
    layers["evolve.descend.s_per_iter"] = (
        layers["evolve.descend.s"] / iters if iters else 0.0)
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    layers["trace.spans"] = hi - mid
    n_spans = tracer.write(spans_path)
    return {"pass_s": plain, "traced_pass_s": traced, "layers": layers,
            "cycles": cycles, "spans_file": spans_path, "spans_written": n_spans,
            "digest": digest_id(reference)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(args.out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-{args.seed}-", dir=args.out_dir)
    tally = Tally()
    try:
        inputs, setup_times = measure_setup(wl, args.seed)
        if args.trace:
            spans = os.path.join(args.out_dir,
                                 f"spans-{wl.name}-seed{args.seed}.csv.gz")
            result = run_traced(wl, args.seed, inputs, workdir, args.seconds,
                                tally, spans)
        else:
            result = run_plain(wl, inputs, workdir, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result.update({
        "setup_s": setup_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
