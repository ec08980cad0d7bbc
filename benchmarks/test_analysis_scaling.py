"""Analysis stage: serial throughput and the artifact cache.

Measures the Figure-2 analysis (``analyze_chains``) over one
default-scale chain map, then the artifact cache cold (serial compute +
save) against warm (served from disk), and persists every number to
``BENCH_analyze.json`` (repo root; override with
``REPRO_BENCH_ANALYZE_OUT``) so CI can archive and gate on it.

Two gates: a serial throughput floor, and the warm artifact run at
least 5x faster than a cold compute + save.  Cold and warm are timed in
interleaved rounds of at least ``AB_ROUND_SECONDS`` each (the operation
repeated within a round), so runner load hits both sides alike.  Every
round's sample and cold/warm ratio is recorded next to the best-of-rounds
figure the gates read.
"""

from __future__ import annotations

import itertools
import json
import os
import time

import pytest

from repro.core import matching
from repro.core.chain import aggregate_chains
from repro.obs.benchreport import host_metadata, interleaved_rounds, round_ratios
from repro.resilience import ArtifactStore

ROUNDS = 5
AB_ROUND_SECONDS = 0.5
BENCH_OUT = os.environ.get(
    "REPRO_BENCH_ANALYZE_OUT",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "BENCH_analyze.json"))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _cold_samples(fn) -> list:
    """One sample per round, each with the process-global match memo
    cleared first so every round pays the full pair-matching cost."""
    def cold():
        matching._MATCH_MEMO.clear()
        fn()
    return [_timed(cold) for _ in range(ROUNDS)]


@pytest.fixture(scope="module")
def analysis_bench(dataset, tmp_path_factory):
    """Measure everything once, write BENCH_analyze.json, share numbers."""
    chains = aggregate_chains(dataset.joined())
    count = len(chains)

    serial = _cold_samples(lambda: dataset.analyzer().analyze_chains(chains))

    # Artifact cache: every cold call gets a fresh store (compute +
    # save, match memo cleared); warm calls share one pre-primed store.
    base = tmp_path_factory.mktemp("artifact-bench")
    cold_stores = (ArtifactStore(str(base / f"cold-{i}"))
                   for i in itertools.count())

    def cold_call():
        matching._MATCH_MEMO.clear()
        dataset.analyzer().analyze_chains(chains,
                                          artifacts=next(cold_stores))

    warm_store = ArtifactStore(str(base / "warm"))
    dataset.analyzer().analyze_chains(chains, artifacts=warm_store)
    cold, warm = interleaved_rounds(
        cold_call,
        lambda: dataset.analyzer().analyze_chains(chains,
                                                  artifacts=warm_store),
        rounds=ROUNDS, min_seconds=AB_ROUND_SECONDS)

    numbers = {
        "dataset": {"chains": count},
        "cpu_count": os.cpu_count(),
        "host": host_metadata(),
        "rounds": ROUNDS,
        "ab_round_seconds": AB_ROUND_SECONDS,
        "serial": {"seconds": min(serial),
                   "chains_per_second": count / min(serial),
                   "samples": serial},
        "artifact": {
            "cold_seconds": min(cold),
            "warm_seconds": min(warm),
            "warm_speedup": min(cold) / min(warm),
            "cold_samples": cold,
            "warm_samples": warm,
            **round_ratios(cold, warm),
        },
    }
    with open(BENCH_OUT, "w", encoding="utf-8") as handle:
        json.dump(numbers, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return numbers


def test_bench_file_written(analysis_bench):
    recorded = json.load(open(BENCH_OUT))
    assert recorded["serial"]["chains_per_second"] > 0
    assert recorded["artifact"]["warm_speedup"] > 0


def test_serial_throughput_floor(analysis_bench):
    # Loose enough for CI noise, tight enough to catch a quadratic
    # regression.
    assert analysis_bench["serial"]["chains_per_second"] > 5_000


def test_warm_artifact_at_least_5x_faster_than_cold(analysis_bench):
    # Rehydrating derived state must beat a serial compute + save by a
    # wide margin, or the cache is not earning its disk.
    assert analysis_bench["artifact"]["warm_speedup"] >= 5
