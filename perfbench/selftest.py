"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload it checks that

* an untraced and a traced run end in a result line with exactly the keys
  the benchmark contract names, every declared metric with its unit, and no
  failed job; the report lines above it name ``fail_frac`` too;
* a run whose oracle reference values are shifted (``PERFBENCH_REFERENCE_SHIFT``)
  reports failed jobs, so the checks cannot pass without testing anything;

and that the benchmark refuses to run, without a result line, in a directory
that holds only ``BENCHMARK.json`` and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=None, env=None, script=RUN):
    argv = [sys.executable, script, "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check_result(workload, trace, problems):
    code, lines, err = bench(workload, trace)
    where = f"{workload} trace={trace}"
    if code != 0 or not lines:
        problems.append(f"{where}: exit {code}: {err.strip()[-300:]}")
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    declared = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} differ in name or unit")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: failed jobs: " + " | ".join(
            l for l in lines if l.startswith("FAILED")))
    if not any(l.strip().startswith("fail_frac = ") and l.endswith(" ratio") for l in lines):
        problems.append(f"{where}: no fail_frac line")


def check_corrupted_oracle(workload, problems):
    env = dict(os.environ, PERFBENCH_REFERENCE_SHIFT="0.5")
    code, lines, err = bench(workload, 0, env=env)
    if code != 0 or not lines:
        problems.append(f"{workload} corrupted oracle: exit {code}: {err.strip()[-300:]}")
        return
    result = json.loads(lines[-1])
    if result["failed"] == 0 or result["correct"]:
        problems.append(f"{workload}: a corrupted oracle still passed every job")


def check_bare_directory(problems):
    bare = os.path.join(HERE, ".out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(os.getcwd(), "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    try:
        code, lines, _ = bench(WORKLOADS[0], 0, cwd=bare,
                               script=os.path.join(bare, "perfbench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(l.startswith("{") for l in lines):
        problems.append("bare directory: the benchmark ran without the package")


def main():
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_result(workload, trace, problems)
        check_corrupted_oracle(workload, problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("passed" if not problems else f"failed ({len(problems)})"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
