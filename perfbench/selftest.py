"""Fast self-test of the benchmark, at the small scale.

    python3 perfbench/selftest.py

From the repository root: runs every ``BENCHMARK.json`` workload once
untraced and once traced (``--scale small``, one-second loops), and
asserts that each result line has exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, that every named metric is
reported with its unit, and that every correctness check passed.  Then it checks that the benchmark refuses to run (non-zero
exit, no result line) in a directory holding only ``BENCHMARK.json`` and
the benchmark's own files.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--scale", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(workload: str, trace: int, expected: dict) -> None:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace={trace} failed its "
                             f"checks:\n{proc.stderr}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected:
        missing = sorted(set(expected) - set(units))
        extra = sorted(set(units) - set(expected))
        wrong = sorted(n for n in set(units) & set(expected)
                       if units[n] != expected[n])
        raise AssertionError(f"{workload} trace={trace}: missing {missing}, "
                             f"unexpected {extra}, wrong units {wrong}")
    print(f"ok  {workload:14} trace={trace}  "
          f"{result['attempted']} invocations, {len(units)} metrics")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")
                                     ) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "generate", 0)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        raise AssertionError("the benchmark ran without the program")
    print("ok  refuses to run without the program")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    for workload in spec["workloads"]:
        check_result(workload["name"], 0, end_to_end)
        check_result(workload["name"], 1, per_layer)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
