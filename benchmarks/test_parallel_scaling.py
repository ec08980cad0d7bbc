"""Parallel ingestion scaling: engine vs the pre-engine serial path.

Measures the legacy serial pipeline (per-line interpreter reader, list
join, one aggregation pass) against the sharded engine at ``jobs`` 1, 2,
and 4 over the same corpus, and persists every number to
``BENCH_ingest.json`` (repo root; override with ``REPRO_BENCH_INGEST_OUT``)
so CI can archive and gate on it.  At every ``jobs`` value the columnar
engine is also compared with the row engine (``columnar=False``) in
interleaved A/B rounds: ``engine.N.columnar_over_rowwise`` is the
row-engine time over the columnar time, with every round's ratio and
the quartiles.

The multi-core speedup assertion only runs where multi-core speedup is
physically possible (``os.cpu_count() >= 4``); on smaller boxes the
numbers are still measured and recorded.  The compiled-codec win over the
legacy reader is asserted unconditionally — it is a single-thread
property.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import pytest

from repro.core.chain import aggregate_chains
from repro.obs.benchreport import host_metadata, interleaved_rounds, round_ratios
from repro.parallel import discover_shards, ingest_shards, split_zeek_log
from repro.parallel.worker import _SSL_INTERN, _SSL_PROJECTION
from repro.zeek.columnar import read_zeek_log_columnar
from repro.zeek.format import read_zeek_log
from repro.zeek.records import SSLRecord, X509Record
from repro.zeek.tap import join_logs

ROUNDS = 3
COLUMNAR_ROUNDS = 9  # the 500k rows/s floor gate needs low-noise timing
AB_ROUNDS = 5
AB_ROUND_SECONDS = 0.5
SHARDS = 4
BENCH_OUT = os.environ.get(
    "REPRO_BENCH_INGEST_OUT",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "BENCH_ingest.json"))


def _best(fn, rounds: int = ROUNDS) -> float:
    return min(_timed(fn) for _ in range(rounds))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def ingest_bench(dataset, tmp_path_factory):
    """Measure everything once, write BENCH_ingest.json, share the numbers."""
    base = tmp_path_factory.mktemp("scaling")
    ssl_path, x509_path = dataset.write_zeek_logs(str(base / "whole"))
    shard_dir = base / "shards"
    split_zeek_log(ssl_path, str(shard_dir), SHARDS)
    shutil.copy(x509_path, shard_dir / "x509.log")
    shards = discover_shards(str(shard_dir))
    rows = len(dataset.ssl_records)

    def legacy_serial():
        _, ssl_rows = read_zeek_log(ssl_path, compiled=False)
        _, x509_rows = read_zeek_log(x509_path, compiled=False)
        joined = join_logs([SSLRecord.from_row(r) for r in ssl_rows],
                           [X509Record.from_row(r) for r in x509_rows])
        return aggregate_chains(joined)

    # Read-path measurements run first, before a minute of engine rounds
    # heats the box: the single-core floors are the tightest gates and
    # deserve the quietest window.  The columnar reader is measured in
    # its engine configuration: projected to the columns the fold
    # consumes, id columns interned.
    read_columnar = _best(
        lambda: read_zeek_log_columnar(ssl_path, intern=_SSL_INTERN,
                                       project=_SSL_PROJECTION),
        rounds=COLUMNAR_ROUNDS)
    read_compiled = _best(lambda: read_zeek_log(ssl_path, compiled=True))
    read_legacy = _best(lambda: read_zeek_log(ssl_path, compiled=False))
    serial_seconds = _best(legacy_serial)
    engine_results = {}

    def run_engine(jobs):
        engine_results[jobs] = ingest_shards(shards, jobs=jobs)

    engine_seconds = {
        jobs: _best(lambda jobs=jobs: run_engine(jobs))
        for jobs in (1, 2, SHARDS)}

    def versus_rowwise(jobs):
        """The columnar engine against the row engine at the same jobs."""
        columnar, rowwise = interleaved_rounds(
            lambda: ingest_shards(shards, jobs=jobs),
            lambda: ingest_shards(shards, jobs=jobs, columnar=False),
            rounds=AB_ROUNDS, min_seconds=AB_ROUND_SECONDS)
        return {"rowwise_seconds": min(rowwise),
                "columnar_over_rowwise": min(rowwise) / min(columnar),
                "columnar_samples": columnar,
                "rowwise_samples": rowwise,
                **round_ratios(rowwise, columnar)}

    rowwise_ab = {jobs: versus_rowwise(jobs) for jobs in (1, 2, SHARDS)}

    numbers = {
        "dataset": {"ssl_rows": rows,
                    "x509_rows": len(dataset.x509_records)},
        "cpu_count": os.cpu_count(),
        "host": host_metadata(
            requested_jobs=engine_results[SHARDS].requested_jobs,
            effective_jobs=engine_results[SHARDS].jobs),
        "shards": SHARDS,
        "rounds": ROUNDS,
        "ab_rounds": AB_ROUNDS,
        "ab_round_seconds": AB_ROUND_SECONDS,
        "serial_legacy": {"seconds": serial_seconds,
                          "rows_per_second": rows / serial_seconds},
        "engine": {
            str(jobs): {"seconds": seconds,
                        "rows_per_second": rows / seconds,
                        "speedup_vs_serial": serial_seconds / seconds,
                        "requested_jobs": engine_results[jobs].requested_jobs,
                        "effective_jobs": engine_results[jobs].jobs,
                        **rowwise_ab[jobs]}
            for jobs, seconds in engine_seconds.items()},
        "read": {
            "compiled_seconds": read_compiled,
            "legacy_seconds": read_legacy,
            "columnar_seconds": read_columnar,
            "compiled_rows_per_second": rows / read_compiled,
            "legacy_rows_per_second": rows / read_legacy,
            "columnar_rows_per_second": rows / read_columnar,
            "compiled_over_legacy": read_legacy / read_compiled,
            "columnar_over_compiled": read_compiled / read_columnar,
        },
    }
    with open(BENCH_OUT, "w", encoding="utf-8") as handle:
        json.dump(numbers, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return numbers


def test_bench_file_written(ingest_bench):
    recorded = json.load(open(BENCH_OUT))
    assert recorded["engine"]["1"]["rows_per_second"] > 0
    assert recorded["read"]["compiled_rows_per_second"] > 0
    # The CPU clamp is part of the recorded contract: a 4-worker request
    # on a smaller box must report what actually ran.
    four = recorded["engine"][str(SHARDS)]
    assert four["requested_jobs"] == SHARDS
    assert four["effective_jobs"] <= (recorded["cpu_count"] or 1)


def test_compiled_read_floor(ingest_bench):
    # Same 2x-the-old-30k-bar floor that benchmarks/test_throughput.py
    # enforces, but measured from disk through the full file path.
    assert ingest_bench["read"]["compiled_rows_per_second"] > 60_000
    assert ingest_bench["read"]["compiled_over_legacy"] > 1.2


def test_columnar_read_floor(ingest_bench):
    # Design target: >=500k rows/s single core, ~4x the compiled codec
    # (both reached on a quiet box; see PERFORMANCE.md).  The enforced
    # floors follow the compiled-reader convention above — roughly half
    # of typical — so shared-runner load swings cannot flake the gate;
    # bench-report --check applies the same levels.
    assert ingest_bench["read"]["columnar_rows_per_second"] > 250_000
    assert ingest_bench["read"]["columnar_over_compiled"] > 2.0


def test_columnar_engine_no_slower_than_rowwise(ingest_bench):
    # Recorded at every jobs value; gated at jobs=1, where no process
    # boundary hides the hand-off (bench-report applies the same floor).
    for jobs in ("1", "2", str(SHARDS)):
        engine = ingest_bench["engine"][jobs]
        assert len(engine["round_ratios"]) == AB_ROUNDS
    assert ingest_bench["engine"]["1"]["columnar_over_rowwise"] >= 1.0


def test_engine_beats_legacy_serial_single_worker(ingest_bench):
    # jobs=1 isolates the single-thread wins (compiled codecs, streaming
    # join) from parallelism: the engine must already be ahead.
    assert ingest_bench["engine"]["1"]["speedup_vs_serial"] > 1.1


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="multi-core speedup needs >= 4 CPUs")
def test_parallel_scaling_at_four_workers(ingest_bench):
    assert ingest_bench["engine"][str(SHARDS)]["speedup_vs_serial"] > 1.5
