"""End-to-end wall clock: generate → ingest → analyze, per jobs value.

The closed loop the generation engine enables: stage 0 writes shard
logs the ingestion engine discovers directly, whose merged chain map the
serial analysis consumes.  This benchmark times each stage and the
whole loop at ``jobs`` 1 and 4 and persists the numbers to
``BENCH_e2e.json`` (repo root; override with ``REPRO_BENCH_E2E_OUT``).

Small scale by default (``REPRO_BENCH_E2E_SCALE`` to override): the
loop re-simulates the campaign per round, and the stage proportions —
what the number is for — do not move with scale.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import pytest

from repro.campus.dataset import build_campus_dataset, resolve_scale
from repro.obs.benchreport import host_metadata
from repro.parallel import discover_shards, generate_dataset, ingest_shards

ROUNDS = 2
JOBS_MATRIX = (1, 4)
E2E_SEED = os.environ.get("REPRO_BENCH_E2E_SEED", "0")
E2E_SCALE = os.environ.get("REPRO_BENCH_E2E_SCALE", "small")
BENCH_OUT = os.environ.get(
    "REPRO_BENCH_E2E_OUT",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "BENCH_e2e.json"))


@pytest.fixture(scope="module")
def e2e_bench(tmp_path_factory):
    scale = resolve_scale(E2E_SCALE)
    # Analyzer context (trust stores, CT index, disclosures) is built
    # once outside the timed loop: it is pipeline input, not pipeline.
    context = build_campus_dataset(seed=E2E_SEED, scale=scale)
    analyzer = context.analyzer()
    base = tmp_path_factory.mktemp("e2e")

    def run_loop(jobs: int) -> dict:
        out = str(base / f"jobs-{jobs}")
        shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        generated = generate_dataset(out, seed=E2E_SEED, scale=scale,
                                     jobs=jobs)
        generated_at = time.perf_counter()
        ingest = ingest_shards(discover_shards(out), jobs=jobs)
        ingested_at = time.perf_counter()
        result = analyzer.analyze_chains(ingest.chains)
        done = time.perf_counter()
        assert ingest.missing_certs == 0
        assert result.chains
        return {
            "generate_seconds": generated_at - start,
            "ingest_seconds": ingested_at - generated_at,
            "analyze_seconds": done - ingested_at,
            "total_seconds": done - start,
            "ssl_rows": generated.ssl_rows,
            "chains": len(result.chains),
            "requested_jobs": jobs,
            "effective_generate_jobs": generated.jobs,
        }

    run_loop(1)  # warm the per-process generation context once
    runs = {}
    for jobs in JOBS_MATRIX:
        best = None
        for _ in range(ROUNDS):
            candidate = run_loop(jobs)
            if best is None or candidate["total_seconds"] < \
                    best["total_seconds"]:
                best = candidate
        runs[str(jobs)] = best

    numbers = {
        "dataset": {"scale": scale.name,
                    "ssl_rows": runs["1"]["ssl_rows"],
                    "chains": runs["1"]["chains"]},
        "cpu_count": os.cpu_count(),
        "host": host_metadata(
            requested_jobs=max(JOBS_MATRIX),
            effective_jobs=runs[str(max(JOBS_MATRIX))][
                "effective_generate_jobs"]),
        "rounds": ROUNDS,
        "pipeline": runs,
    }
    with open(BENCH_OUT, "w", encoding="utf-8") as handle:
        json.dump(numbers, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return numbers


def test_bench_file_written(e2e_bench):
    recorded = json.load(open(BENCH_OUT))
    serial = recorded["pipeline"]["1"]
    assert serial["total_seconds"] > 0
    assert serial["chains"] > 0
    stages = (serial["generate_seconds"] + serial["ingest_seconds"]
              + serial["analyze_seconds"])
    assert abs(stages - serial["total_seconds"]) < 0.05


def test_loop_output_invariant_under_jobs(e2e_bench):
    serial = e2e_bench["pipeline"]["1"]
    fanned = e2e_bench["pipeline"]["4"]
    assert fanned["ssl_rows"] == serial["ssl_rows"]
    assert fanned["chains"] == serial["chains"]
