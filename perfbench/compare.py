"""Compare two sets of benchmark run records, refusing unlike runs.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are run-record files, or directories of them, as
``run.py`` writes under ``.perfbench/records``.  The comparison is
refused (exit 2) unless both sides ran on the same host fingerprint
(CPU count, platform, Python) with the same workloads, seeds, scale,
run length and trace setting.  For every workload and metric it prints
both medians and the change as a share of the base median; an
end-to-end metric that got worse by more than its ``BENCHMARK.json``
bound is marked ``WORSE`` and makes the exit status 1.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))


class Refused(Exception):
    """The two sides cannot be compared; the message says why."""


def load(path: str) -> List[dict]:
    paths = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    records = []
    for name in paths:
        with open(name, encoding="utf-8") as handle:
            records.append(json.load(handle))
    if not records:
        raise Refused(f"no run records in {path}")
    return records


def identity(records: List[dict]) -> dict:
    """What both sides must share for their numbers to be comparable."""
    hosts = {json.dumps(r["host"], sort_keys=True) for r in records}
    if len(hosts) != 1:
        raise Refused(f"one side mixes runs from {len(hosts)} hosts")
    return {
        "host": hosts.pop(),
        "runs": sorted((r["workload"], r["seed"], r["scale"], r["seconds"],
                        r["trace"]) for r in records),
    }


def medians(records: List[dict]) -> Dict[tuple, float]:
    values: Dict[tuple, list] = defaultdict(list)
    for record in records:
        for name, metric in record["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
    return {key: statistics.median(v) for key, v in values.items()}


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        base, change = load(argv[0]), load(argv[1])
        base_id, change_id = identity(base), identity(change)
        if base_id["host"] != change_id["host"]:
            raise Refused("the two sides ran on different hosts")
        if base_id["runs"] != change_id["runs"]:
            raise Refused("the two sides ran different workloads, seeds "
                          "or settings")
    except Refused as exc:
        print(f"compare.py: refusing to compare: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base_m, change_m = medians(base), medians(change)
    status = 0
    print(f"{'workload':14} {'metric':36} {'base':>14} {'change':>14} "
          f"{'delta':>8}")
    for key in sorted(base_m):
        workload, name = key
        before, after = base_m[key], change_m.get(key)
        if after is None:
            continue
        delta = (after - before) / before if before else 0.0
        verdict = ""
        metric = bounds.get(name)
        if metric is not None:
            worse = delta if metric["better"] == "lower" else -delta
            if worse > metric["bound"]:
                verdict = "WORSE"
                status = 1
        print(f"{workload:14} {name:36} {before:14.6g} {after:14.6g} "
              f"{delta:+8.2%} {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
