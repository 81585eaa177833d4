"""adrdesign benchmark: one workload, one seed, one JSON line of metrics.

Usage, from the root of a checkout:

    python3 adrbench/run.py --workload design_queries --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout; nothing needs
installing. One client runs in this process as a closed loop: it sends the
next request only when the previous one has returned. The seed makes the
inputs, the program only sees them.

--trace 0 prints the end-to-end metrics: setup_s, cells_per_s,
request_p50_ms, peak_rss_mb. --trace 1 alternates untraced and traced rounds,
prints the per-layer metrics of one round and the tracing overhead, and
writes the spans to .adrbench_out/traces/. The last line of standard output
is the result object; failed checks are listed on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".adrbench_out")
SETUP_REPEATS = 7
# What every CLI call pays before any work: a fresh interpreter, the import,
# the configuration and the link context.
SETUP_CODE = "import adrdesign; adrdesign.load_config(None).context()"


def measure_setup() -> float:
    """Median wall time of SETUP_REPEATS fresh interpreters doing SETUP_CODE [s]."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       timeout=60, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Run:
    """Drives one workload: a checked first round, then timed whole rounds."""

    def __init__(self, workload):
        self.wl = workload
        self.reference = {}  # request index -> digest of the checked outputs
        self.latencies = []  # seconds, succeeded requests of timed rounds
        self.throughputs = []  # cells per busy second, one per timed round
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def first_round(self):
        """Run every request once and check its outputs; this round is not timed."""
        from workloads import CheckFailed, RequestFailed

        for k, req in enumerate(self.wl.requests):
            try:
                out = self.wl.run(req)
            except RequestFailed:
                self.reference[k] = None
                continue
            try:
                self.wl.check(req, out)
            except CheckFailed as exc:
                self.errors.append(f"request {k} ({req.kind}): {exc}")
            self.reference[k] = self.wl.digest(req, out)
            del out  # hold one request's outputs at a time, as the timed rounds do

    def timed_round(self, before=None) -> float:
        """One round; returns its busy time. Outputs must equal the first round's."""
        from workloads import RequestFailed

        busy = 0.0
        cells = 0
        for k, req in enumerate(self.wl.requests):
            if before:
                before()
            self.attempted += 1
            start = time.perf_counter()
            try:
                out = self.wl.run(req)
            except RequestFailed:
                out = None
            elapsed = time.perf_counter() - start
            busy += elapsed
            if out is None:
                self.failed += 1
                if self.reference[k] is not None:
                    self.errors.append(f"request {k} failed after succeeding once")
                continue
            self.latencies.append(elapsed)
            cells += req.cells
            if self.wl.digest(req, out) != self.reference[k]:
                self.errors.append(f"request {k} ({req.kind}): outputs changed between rounds")
            del out
        self.throughputs.append(cells / busy)
        return busy


def end_to_end(run: Run, seconds: float) -> dict:
    busy = 0.0
    while busy < seconds:
        busy += run.timed_round()
    if not run.latencies:
        raise SystemExit("error: every request failed; no latency to report")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (measure_setup(), "s"),
        "cells_per_s": (statistics.median(run.throughputs), "1/s"),
        "request_p50_ms": (statistics.median(run.latencies) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(run: Run, seconds: float, trace_path: str) -> dict:
    import tracer

    tr = tracer.Tracer()
    plain, traced = [], []
    while sum(plain) + sum(traced) < seconds or not traced:
        plain.append(run.timed_round())
        with tr.installed():
            traced.append(run.timed_round(before=tr.begin_request))
    tr.write(trace_path)
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    return tracer.layer_metrics(tr.totals, tr.in_solve_points, len(traced),
                                statistics.fmean(traced), overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "adrdesign", "__init__.py")):
        print(f"error: no adrdesign sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    rundir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, rundir)
        run = Run(wl)
        run.first_round()
        if args.trace:
            os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
            trace_path = os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.jsonl")
            metrics = per_layer(run, args.seconds, trace_path)
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for error in run.errors:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
