"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload chain-duality --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The workload runs in a fresh worker
process with OpenBLAS, OpenMP and MKL pinned to one thread, for the whole
rounds of its job cycle that ``--seconds`` buys (see ``worker.py``).
Set-up time is measured on that worker and on ``SETUP_PROBES`` more fresh
processes that stop after the warm-up job, and reported as the median.  With ``--trace 0``
the last line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass (see ``tracing.py``).  Lines before it
give the environment, the input digest and every metric with its unit.
Exits non-zero without a result line when the package or the worker is
missing or broken.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 4
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# numpy asks for transparent huge pages on large arrays; whether the
# kernel has one free depends on the rest of the machine, and a huge page
# makes 2 MiB resident at once, so peak RSS would vary from run to run.
MEMORY_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0"}
# A worker may run past --seconds by one job and its oracle checks.
WORKER_SLACK_S = 90.0
PROBE_TIMEOUT_S = 30.0
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    pass


def _worker_cmd(args, workdir, extra):
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size, "--workdir", workdir, *extra]


def _start(cmd, env):
    """Start a worker; return it and the seconds until it printed READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, ready


def _finish(proc, timeout):
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker ran past {timeout:.0f} s and was stopped")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def tail(times):
    """Highest percentile with at least TAIL_BEYOND jobs beyond it, and its value."""
    xs = sorted(times)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1]
    k = n - TAIL_BEYOND - 1  # xs[k] has exactly TAIL_BEYOND jobs above it
    return 100.0 * (k + 1) / n, xs[k]


def _git_commit(root):
    """Commit of a git checkout, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, root, digest):
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "worker_env": {**THREAD_ENV, **MEMORY_ENV},
        "git_commit": _git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "input_sha256": digest,
    }


def end_to_end(phase, setup_samples, peak_rss_mb):
    times = phase["times"]
    pct, tail_s = tail(times)
    attempted = len(times)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "jobs_per_s": (phase["passed"] / phase["busy_s"], "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_frac": ((attempted - phase["passed"]) / attempted, "ratio"),
    }, pct


def measure(args, root):
    outdir = os.path.join(HERE, ".out")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = os.path.join(outdir, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    result_path = os.path.join(outdir, f"{tag}.json")
    env = dict(os.environ, **THREAD_ENV, **MEMORY_ENV)

    if os.path.exists(result_path):
        os.remove(result_path)
    setup = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, ready = _start(_worker_cmd(args, workdir, ["--probe"]), env)
                _finish(proc, PROBE_TIMEOUT_S)
                setup.append(ready)
        proc, ready = _start(_worker_cmd(args, workdir, ["--result", result_path]), env)
        setup.append(ready)
        _finish(proc, args.seconds * (2 if args.trace else 1) + WORKER_SLACK_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    digest = workloads.input_digest(args.workload, args.seed, args.size)
    env_block = environment(args, root, digest)
    base = result["untraced"]
    e2e, pct = end_to_end(base, setup, result["peak_rss_mb"])
    phases = [base] + ([result["traced"]] if args.trace else [])
    attempted = sum(len(p["times"]) for p in phases)
    failed = attempted - sum(p["passed"] for p in phases)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds} size={args.size}")
    print("environment " + json.dumps(env_block, sort_keys=True))
    print(f"jobs={len(base['times'])} tail=p{pct:.1f} setup_samples="
          + ",".join(f"{s:.4f}" for s in setup))
    for name, (value, unit) in e2e.items():
        print(f"  {name} = {value:.6g} {unit}")
    if args.trace:
        traced = result["traced"]
        print(f"traced jobs={len(traced['times'])} spans={traced['spans']} layer self-time "
              "shares " + json.dumps({k: round(v, 4) for k, v in traced["layer_shares"].items()}))
        for name, (value, unit) in traced["layer_metrics"].items():
            print(f"  {name} = {value:.6g} {unit}")
    for p in phases:
        for reason in p["reasons"]:
            print(f"FAILED {reason}")

    chosen = result["traced"]["layer_metrics"] if args.trace else {
        k: v for k, v in e2e.items() if k != "fail_frac"}
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    with open(os.path.join(outdir, f"{tag}.summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env_block, "tail_percentile": pct,
                   "setup_samples": setup, "end_to_end": e2e, **summary}, fh, indent=1)
    print(json.dumps(summary))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="input sizes; 'tiny' is for the self-test")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "monodual", "__init__.py")):
        print("perfbench: run from the root of a monodual checkout "
              "(src/monodual not found)", file=sys.stderr)
        return 2
    try:
        measure(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
