"""Worker telemetry end to end: spans cross the pool, traces show pids.

The acceptance bar for the telemetry sink: a ``--jobs 4`` ingest over
four shards, with the CPU clamp lifted, must yield a Chrome-trace JSON
whose span events come from four distinct worker pids — proof that the
capture/attach path survives pickling and that the exporter maps each
worker onto its own process track.
"""

from __future__ import annotations

import json
import logging
import shutil

import pytest

from repro.campus.dataset import cached_campus_dataset
from repro.obs.metrics import get_registry
from repro.obs.sink import get_sink
from repro.obs.traceexport import distinct_pids, validate_trace, write_trace
from repro.obs.tracing import get_tracer
from repro.parallel import discover_shards, ingest_shards, split_zeek_log
from repro.parallel.pool import NO_CPU_CLAMP_VAR, clamp_jobs, make_pool
from repro.scan import ActiveScanner, ScanTarget


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("telemetry-corpus")
    dataset = cached_campus_dataset(seed="telemetry", scale="small")
    ssl_path, x509_path = dataset.write_zeek_logs(str(base / "whole"))
    shard_dir = base / "shards"
    split_zeek_log(ssl_path, str(shard_dir), 4)
    shutil.copy(x509_path, shard_dir / "x509.log")
    return discover_shards(str(shard_dir))


@pytest.fixture(autouse=True)
def fresh_telemetry():
    get_sink().reset()
    get_tracer().reset()
    yield
    get_sink().reset()


class TestClampJobs:
    def test_effective_capped_by_units_and_cpu(self, monkeypatch):
        monkeypatch.delenv(NO_CPU_CLAMP_VAR, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert clamp_jobs(8, 4) == (8, 2)
        assert clamp_jobs(8, 1) == (8, 1)
        assert clamp_jobs(1, 4) == (1, 1)

    def test_none_requested_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(NO_CPU_CLAMP_VAR, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        assert clamp_jobs(None, 8) == (3, 3)

    def test_env_var_lifts_cpu_clamp_not_unit_clamp(self, monkeypatch):
        monkeypatch.setenv(NO_CPU_CLAMP_VAR, "1")
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        assert clamp_jobs(4, 4) == (4, 4)
        assert clamp_jobs(4, 2) == (4, 2)  # units still cap


class TestIngestTelemetry:
    def test_pool_run_collects_one_record_per_shard(self, corpus,
                                                    monkeypatch):
        monkeypatch.setenv(NO_CPU_CLAMP_VAR, "1")
        ingest = ingest_shards(corpus, jobs=2)
        assert ingest.jobs == 2
        sink = get_sink()
        assert [t.unit for t in sink.records
                if t.kind == "ingest"] == [0, 1, 2, 3]
        assert sink.summary()["ingest"]["records"] == 4
        # Every shard body traced at least its outer ingest_shard span;
        # the columnar default reads through columnar_read spans and
        # marks each shard's payload size.
        names = {span.name for _, span in sink.spans()}
        assert "ingest_shard" in names
        assert "columnar_read" in names
        assert "shard_payload" in names

    def test_inline_run_collects_identical_record_set(self, corpus):
        ingest_shards(corpus, jobs=1)
        sink = get_sink()
        assert [t.unit for t in sink.records
                if t.kind == "ingest"] == [0, 1, 2, 3]
        # Inline capture drains worker spans out of the driver tracer:
        # no ingest_shard span may appear on the driver's own timeline.
        driver_names = {r.name for r in get_tracer().finished}
        assert "ingest_shard" not in driver_names
        assert "parallel_ingest" in driver_names

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_driver_traces_one_merge_per_shard(self, corpus, jobs,
                                               monkeypatch):
        monkeypatch.setenv(NO_CPU_CLAMP_VAR, "1")
        ingest_shards(corpus, jobs=jobs)
        merges = [r for r in get_tracer().finished
                  if r.name == "ingest_merge"]
        assert [r.attrs["shard"] for r in merges] == [0, 1, 2, 3]
        assert all(r.attrs["payload_bytes"] > 0 for r in merges)
        # Opened in the dispatch loop, not after the pool has drained.
        assert all(r.path == "parallel_ingest.supervised_ingest.ingest_merge"
                   for r in merges)

    def test_trace_export_shows_four_distinct_worker_pids(self, corpus,
                                                          tmp_path,
                                                          monkeypatch):
        monkeypatch.setenv(NO_CPU_CLAMP_VAR, "1")
        ingest = ingest_shards(corpus, jobs=4)
        assert ingest.jobs == 4  # clamp lifted: truly four processes
        trace_path = tmp_path / "trace.json"
        write_trace(str(trace_path))
        trace = json.loads(trace_path.read_text())
        validate_trace(trace)
        worker_pids = distinct_pids(trace, category="ingest")
        assert len(worker_pids) >= 4
        # Worker tracks are labelled kind-unit for the Perfetto UI.
        thread_names = {e["args"]["name"]
                        for e in trace["traceEvents"]
                        if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"ingest-00", "ingest-01",
                "ingest-02", "ingest-03"} <= thread_names


def _dead_targets(count: int):
    # Known-dead targets (server=None) exercise the full scan_many
    # batching and telemetry path without needing a certificate fleet.
    return [ScanTarget(server_id=f"srv-{i:02d}",
                       hostname=f"host{i}.example")
            for i in range(count)]


class TestScanTelemetry:
    def test_parallel_scan_attaches_batch_records(self, monkeypatch):
        monkeypatch.setenv(NO_CPU_CLAMP_VAR, "1")
        scanner = ActiveScanner(seed="telemetry-scan")
        scanner.scan_many(_dead_targets(6), jobs=2)
        records = [t for t in get_sink().records if t.kind == "scan"]
        assert [t.unit for t in records] == [0, 1]
        names = {span.name for t in records for span in t.spans}
        assert "scan_batch" in names

    def test_scan_results_identical_with_and_without_pool(self,
                                                          monkeypatch):
        monkeypatch.setenv(NO_CPU_CLAMP_VAR, "1")
        targets = _dead_targets(6)
        inline = ActiveScanner(seed="telemetry-scan").scan_many(
            targets, jobs=1)
        pooled = ActiveScanner(seed="telemetry-scan").scan_many(
            targets, jobs=3)
        assert pooled == inline


def _worker_root_level(_: int) -> int:
    return logging.getLogger("repro").getEffectiveLevel()


class TestWorkerLoggingPropagation:
    def test_bootstrap_applies_the_handed_level(self):
        # S2: the unit the pool initializer runs — force-reconfigures
        # the worker's root logger to the driver's level.
        from repro.obs.logging import configure_logging
        from repro.parallel.pool import _bootstrap_worker
        configure_logging(level="WARNING", force=True)
        try:
            _bootstrap_worker("DEBUG")
            assert logging.getLogger("repro").getEffectiveLevel() \
                == logging.DEBUG
        finally:
            configure_logging(level="WARNING", force=True)

    def test_pool_workers_run_at_driver_level(self, monkeypatch):
        monkeypatch.setenv(NO_CPU_CLAMP_VAR, "1")
        from repro.obs.logging import configure_logging
        configure_logging(level="DEBUG", force=True)
        try:
            with make_pool(2) as pool:
                levels = set(pool.map(_worker_root_level, range(2)))
        finally:
            configure_logging(level="WARNING", force=True)
        assert levels == {logging.DEBUG}


class TestMetricsStayInvariant:
    def test_counter_export_identical_inline_vs_pool(self, corpus,
                                                     monkeypatch):
        monkeypatch.setenv(NO_CPU_CLAMP_VAR, "1")
        snapshots = []
        for jobs in (1, 4):
            get_registry().reset()
            get_sink().reset()
            ingest_shards(corpus, jobs=jobs)
            snapshot = get_registry().snapshot()
            snapshots.append({
                family: [(s["labels"], s["value"]) for s in data["samples"]]
                for family, data in snapshot.items()
                if data["kind"] == "counter"})
        assert snapshots[0] == snapshots[1]
        # Other kinds may linger as zeroed children from earlier tests
        # (registry.reset() keeps the child set); the ingest sample is
        # what this run must have produced.
        assert ({"kind": "ingest"}, 4) in \
            snapshots[0]["repro_worker_telemetry_records_total"]
