"""One workload in a fresh process: set up, warm up, then run jobs back to back.

Started by ``run.py`` from the root of a checkout, with the BLAS thread
count already fixed in its environment.  It imports the package from
``src/``, builds and runs the warm-up job, prints ``READY`` on stdout and,
unless ``--probe`` is given, runs the closed loop: one job at a time, the
next starting only when the previous one and its (untimed) oracle check
are done, for the whole rounds of the job cycle that ``--seconds`` buys
at the nominal round time (``workloads.rounds_for``).  With
``--trace 1`` it runs the loop twice over the same job stream, untraced
and then traced, so the tracing overhead can be measured.  Results go to
the JSON file named by ``--result``.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import json
import os
import resource
import sys
import time

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]

import jobs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_REASONS = 5


def _heap_trimmer():
    """glibc's malloc_trim, or a no-op where the C library has none.

    glibc keeps freed heap memory, so without a trim between jobs the peak
    RSS of a run depends on what earlier jobs left behind.
    """
    try:
        return ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError, TypeError):
        return lambda pad: 0


def closed_loop(workload, seed, size, runner, seconds, tracer=None):
    times, passed, long_jobs, reasons = [], 0, set(), []
    busy = 0.0
    trim = _heap_trimmer()
    n_jobs = workloads.rounds_for(workload, seconds) * workloads.round_length(workload)
    for i in range(n_jobs):
        job = workloads.make_job(workload, seed, i, size)
        if job["spec"].get("lam_t", 0) >= 100:
            long_jobs.add(i)
        error = ""
        out = ctx = None
        try:
            ctx = runner.prepare(job)
        except Exception as exc:  # a library constructor rejected the input
            error = f"prepare: {type(exc).__name__}: {exc}"
        dt = 0.0
        if not error:
            if tracer is not None:
                tracer.job = i
            t0 = time.perf_counter()
            try:
                out = runner.run(ctx)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.job = None
        if not error:
            error = runner.check(job, ctx, out)
        times.append(dt)
        if error:
            if len(reasons) < MAX_REASONS:
                reasons.append(f"job {i} {job['spec']}: {error}")
        else:
            passed += 1
        busy += dt
        out = ctx = None
        gc.collect()
        trim(0)
    return {"times": times, "passed": passed, "busy_s": busy,
            "long_jobs": sorted(long_jobs), "reasons": reasons}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    runner = jobs.runner(args.workload, args.workdir)
    warm = workloads.make_job(args.workload, args.seed, -1, args.size)
    try:
        runner.run(runner.prepare(warm))
    except Exception as exc:  # the timed jobs will fail and be counted
        print(f"warm-up job raised {type(exc).__name__}: {exc}", file=sys.stderr)
    print("READY", flush=True)
    if args.probe:
        return 0

    result = {"untraced": closed_loop(args.workload, args.seed, args.size, runner,
                                      args.seconds)}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        phase = closed_loop(args.workload, args.seed, args.size, runner,
                            args.seconds, tracer)
        base = result["untraced"]
        rate_traced = phase["passed"] / phase["busy_s"]
        overhead = (base["passed"] / base["busy_s"]) / rate_traced - 1.0 if rate_traced else 0.0
        phase["layer_metrics"] = tracing.layer_metrics(
            tracer.spans, set(phase["long_jobs"]), overhead)
        phase["layer_shares"] = tracing.layer_shares(tracer.spans)
        phase["spans"] = len(tracer.spans)
        tracer.write(os.path.splitext(args.result)[0] + ".spans.jsonl")
        result["traced"] = phase
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
