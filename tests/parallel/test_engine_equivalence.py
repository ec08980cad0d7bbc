"""Parallel ingestion == serial ingestion, byte for byte.

The engine's central guarantee: for the same shard set, the merged chain
map — including dict insertion order, every Counter's key order, and all
usage accumulators — is identical whether read by one process or many,
and identical to the original serial read/join/aggregate path.  These
tests pin that guarantee at every layer: raw chain maps, AnalysisResult
tables, quarantine contents under corruption, exported metric values,
and checkpoint fingerprints.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil

import pytest

from repro.campus.dataset import cached_campus_dataset
from repro.core.categorization import ChainCategory
from repro.core.chain import aggregate_chains
from repro.core.pipeline import ChainStructureAnalyzer
from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from repro.obs.metrics import get_registry
from repro.parallel import discover_shards, engine, ingest_logs, \
    ingest_shards, split_zeek_log
from repro.parallel.pool import NO_CPU_CLAMP_VAR
from repro.parallel.supervisor import HANG_SECONDS_VAR, SupervisorConfig
from repro.resilience import Quarantine
from repro.resilience.journal import RunJournal
from repro.zeek.columnar import read_zeek_log_columnar
from repro.zeek.format import ZeekFormatError, read_zeek_log, \
    write_zeek_log
from repro.zeek.records import SSLRecord, X509Record
from repro.zeek.tap import join_logs

JOBS_MATRIX = [1, 2, 4]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One dataset, written as a single pair AND as four broadcast shards."""
    base = tmp_path_factory.mktemp("parallel-corpus")
    dataset = cached_campus_dataset(seed="par-eq", scale="small")
    ssl_path, x509_path = dataset.write_zeek_logs(str(base / "whole"))
    shard_dir = base / "shards"
    split_zeek_log(ssl_path, str(shard_dir), 4)
    # Certificates are de-duplicated corpus-wide, so the x509 log is
    # broadcast whole to every shard rather than split.
    shutil.copy(x509_path, shard_dir / "x509.log")
    return {
        "ssl": ssl_path,
        "x509": x509_path,
        "shards": discover_shards(str(shard_dir)),
    }


def serial_chains(ssl_path: str, x509_path: str):
    """The pre-engine reference path: legacy reader, list join, one pass."""
    _, ssl_rows = read_zeek_log(ssl_path, compiled=False)
    _, x509_rows = read_zeek_log(x509_path, compiled=False)
    joined = join_logs([SSLRecord.from_row(r) for r in ssl_rows],
                       [X509Record.from_row(r) for r in x509_rows])
    return aggregate_chains(joined)


def canon(chains):
    """Full observable state of a chain map, order included."""
    return [(key, tuple(c.fingerprint for c in chain.certificates),
             chain.usage.connections, chain.usage.established,
             sorted(chain.usage.client_ips), list(chain.usage.ports.items()),
             chain.usage.sni_present, sorted(chain.usage.snis),
             chain.usage.first_seen, chain.usage.last_seen,
             sorted(chain.usage.server_ips))
            for key, chain in chains.items()]


class TestEngineMatchesSerial:
    def test_unsharded_ingest_equals_legacy_serial_path(self, corpus):
        reference = serial_chains(corpus["ssl"], corpus["x509"])
        ingest = ingest_logs(corpus["ssl"], corpus["x509"], jobs=1)
        assert canon(ingest.chains) == canon(reference)
        assert ingest.missing_certs == 0

    def test_sharded_ingest_equals_legacy_serial_path(self, corpus):
        reference = serial_chains(corpus["ssl"], corpus["x509"])
        ingest = ingest_shards(corpus["shards"], jobs=2)
        assert canon(ingest.chains) == canon(reference)


class TestJobsInvariance:
    def test_chain_maps_identical_across_worker_counts(self, corpus):
        results = [ingest_shards(corpus["shards"], jobs=jobs)
                   for jobs in JOBS_MATRIX]
        baseline = canon(results[0].chains)
        assert baseline  # non-trivial corpus
        for result in results[1:]:
            assert canon(result.chains) == baseline

    def test_tallies_and_fingerprints_identical(self, corpus):
        results = [ingest_shards(corpus["shards"], jobs=jobs)
                   for jobs in JOBS_MATRIX]
        baseline = results[0]
        assert baseline.ssl_rows > 0
        assert baseline.cert_fingerprints  # dedup'd, first-seen order
        for result in results[1:]:
            assert result.cert_fingerprints == baseline.cert_fingerprints
            assert (result.ssl_rows, result.x509_rows, result.joined,
                    result.missing_certs, result.aggregated,
                    result.skipped_empty) == \
                (baseline.ssl_rows, baseline.x509_rows, baseline.joined,
                 baseline.missing_certs, baseline.aggregated,
                 baseline.skipped_empty)

    def test_analysis_tables_identical_across_worker_counts(
            self, corpus, registry):
        tables = []
        for jobs in JOBS_MATRIX:
            ingest = ingest_shards(corpus["shards"], jobs=jobs)
            result = ChainStructureAnalyzer(registry).analyze_ingest(ingest)
            path_stats = result.multicert_path_stats(
                ChainCategory.NON_PUBLIC_ONLY)
            tables.append((result.categorized.summary_rows(), path_stats))
        assert tables[0][0]  # Table 2 rows exist
        for rows, stats in tables[1:]:
            assert rows == tables[0][0]
            assert stats == tables[0][1]

    def test_checkpoint_fingerprint_identical_across_worker_counts(
            self, corpus, registry):
        analyzer = ChainStructureAnalyzer(registry)
        fingerprints = {
            analyzer._fingerprint(
                ingest_shards(corpus["shards"], jobs=jobs).chains)
            for jobs in JOBS_MATRIX}
        assert len(fingerprints) == 1

    def test_metric_values_identical_across_worker_counts(self, corpus):
        # Everything except wall-clock timing and the worker gauge must be
        # invariant under --jobs: workers stay silent and the driver emits
        # canonical values from the merged result.
        snapshots = []
        for jobs in JOBS_MATRIX:
            get_registry().reset()
            ingest_shards(corpus["shards"], jobs=jobs)
            snapshot = get_registry().snapshot()
            snapshots.append({
                family: [(s["labels"], s["value"]) for s in data["samples"]]
                for family, data in snapshot.items()
                if data["kind"] == "counter"
            })
        assert snapshots[0]["repro_zeek_rows_total"]
        for snapshot in snapshots[1:]:
            assert snapshot == snapshots[0]


class TestCorruptionEquivalence:
    """5% corruption over the SAME shard set: identical quarantine and
    chains no matter how many workers read it (draws are keyed by the
    plan seed and each shard file's line numbers, never by worker)."""

    PLAN = FaultPlan(seed="par-chaos", zeek_corrupt_rate=0.05)

    def _run(self, corpus, jobs):
        quarantine = Quarantine()
        ingest = ingest_shards(corpus["shards"], jobs=jobs, plan=self.PLAN,
                               quarantine=quarantine)
        return ingest, quarantine

    def test_quarantine_identical_across_worker_counts(self, corpus):
        runs = [self._run(corpus, jobs) for jobs in JOBS_MATRIX]
        _, base_q = runs[0]
        assert base_q.records  # the plan actually corrupted rows
        for _, quarantine in runs[1:]:
            assert quarantine.records == base_q.records

    def test_degraded_chains_identical_across_worker_counts(self, corpus):
        runs = [self._run(corpus, jobs) for jobs in JOBS_MATRIX]
        base_ingest, _ = runs[0]
        for ingest, _ in runs[1:]:
            assert canon(ingest.chains) == canon(base_ingest.chains)

    def test_corruption_actually_changed_the_input(self, corpus):
        clean = ingest_shards(corpus["shards"], jobs=2)
        degraded, _ = self._run(corpus, 2)
        assert degraded.ssl_rows + degraded.x509_rows < \
            clean.ssl_rows + clean.x509_rows


class TestColumnarToggleEquivalence:
    """The columnar hot path (default) against its own escape hatch:
    flipping ``columnar=False`` must change nothing observable."""

    def test_chain_maps_identical_with_and_without_columnar(self, corpus):
        for jobs in JOBS_MATRIX:
            columnar = ingest_shards(corpus["shards"], jobs=jobs)
            rowwise = ingest_shards(corpus["shards"], jobs=jobs,
                                    columnar=False)
            assert canon(columnar.chains) == canon(rowwise.chains)
            assert columnar.cert_fingerprints == rowwise.cert_fingerprints
            assert (columnar.ssl_rows, columnar.joined,
                    columnar.missing_certs, columnar.aggregated,
                    columnar.skipped_empty) == \
                (rowwise.ssl_rows, rowwise.joined, rowwise.missing_certs,
                 rowwise.aggregated, rowwise.skipped_empty)

    def test_quarantine_parity_under_corruption(self, corpus):
        plan = FaultPlan(seed="col-chaos", zeek_corrupt_rate=0.05)
        records = []
        for columnar in (True, False):
            quarantine = Quarantine()
            ingest_shards(corpus["shards"], jobs=2, plan=plan,
                          quarantine=quarantine, columnar=columnar)
            records.append(quarantine.records)
        assert records[0]  # the plan actually corrupted rows
        assert records[0] == records[1]

    def test_worker_crashes_with_journal_and_resume(self, corpus,
                                                    tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_NO_CPU_CLAMP", "1")
        reference = serial_chains(corpus["ssl"], corpus["x509"])
        chaos = FaultPlan(seed="col-crash", worker_crash_rate=0.5)
        with RunJournal(str(tmp_path / "journal")) as journal:
            crashed = ingest_shards(
                corpus["shards"], jobs=2,
                supervise=SupervisorConfig(plan=chaos, max_task_retries=3,
                                           journal=journal))
        assert any(i.incident == "worker_crash"
                   for i in crashed.supervisor.incidents)
        assert canon(crashed.chains) == canon(reference)
        # A resumed run replays the journaled columnar partials and
        # still reduces to the identical chain map.
        with RunJournal(str(tmp_path / "journal")) as journal:
            resumed = ingest_shards(
                corpus["shards"], jobs=2,
                supervise=SupervisorConfig(journal=journal, resume=True))
        assert resumed.supervisor.journal_replayed >= 1
        assert canon(resumed.chains) == canon(reference)


class TestIngestJobsClamp:
    def test_requested_jobs_recorded_and_clamped(self, corpus):
        ingest = ingest_logs(corpus["ssl"], corpus["x509"], jobs=64)
        assert ingest.requested_jobs == 64
        # One shard and a finite CPU count both cap the effective value.
        assert ingest.jobs == 1
        assert ingest.jobs <= (os.cpu_count() or 1)


def data_rows(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if not line.startswith("#"))


class TestX509CountedOncePerFile:
    """A broadcast x509.log is read by every shard but counted once: its
    quarantine records, ``x509_rows`` and row metrics come from the
    owner shard alone."""

    PLAN = FaultPlan(seed="col-chaos", zeek_corrupt_rate=0.05)

    def test_clean_x509_rows_equal_the_file(self, corpus):
        x509_path = corpus["shards"][0].x509_path
        for jobs in (1, 2):
            for columnar in (True, False):
                ingest = ingest_shards(corpus["shards"], jobs=jobs,
                                       columnar=columnar)
                assert ingest.x509_rows == data_rows(x509_path)

    def test_quarantine_equals_one_tolerant_read(self, corpus):
        x509_path = corpus["shards"][0].x509_path
        expected = Quarantine()
        table = read_zeek_log_columnar(x509_path, quarantine=expected,
                                       faults=FaultInjector(self.PLAN))
        assert expected.records  # the plan corrupted x509 rows
        sources = {record.source for record in expected.records}
        for jobs, columnar in ((1, True), (2, True), (2, False)):
            quarantine = Quarantine()
            ingest = ingest_shards(corpus["shards"], jobs=jobs,
                                   plan=self.PLAN, quarantine=quarantine,
                                   columnar=columnar)
            assert [record for record in quarantine.records
                    if record.source in sources] == expected.records
            assert ingest.x509_rows == table.rows

    def test_x509_row_metric_counts_the_file_once(self, corpus):
        x509_path = corpus["shards"][0].x509_path
        get_registry().reset()
        ingest_shards(corpus["shards"], jobs=2)
        samples = get_registry().snapshot()["repro_zeek_rows_total"]
        x509 = [sample["value"] for sample in samples["samples"]
                if sample["labels"] == {"direction": "read",
                                        "path": "x509"}]
        assert x509 == [data_rows(x509_path)]


def counting_reconstruct(monkeypatch):
    """Count ``reconstruct_certificate`` calls made by the engine."""
    calls = []
    original = engine.reconstruct_certificate

    def counted(record):
        calls.append(record.fingerprint)
        return original(record)

    monkeypatch.setattr(engine, "reconstruct_certificate", counted)
    return calls


class TestCertificateTableCrossesOnce:
    def test_one_rebuild_per_distinct_certificate(self, corpus,
                                                  monkeypatch):
        _, rows = read_zeek_log(corpus["shards"][0].x509_path)
        distinct = {row["fingerprint"] for row in rows}
        calls = counting_reconstruct(monkeypatch)
        for jobs in (1, 2):
            calls.clear()
            ingest = ingest_shards(corpus["shards"], jobs=jobs)
            assert len(calls) == len(distinct)
            assert set(calls) == distinct
            assert canon(ingest.chains) == canon(
                serial_chains(corpus["ssl"], corpus["x509"]))

    def test_only_the_owner_ships_x509_rows(self, corpus, monkeypatch):
        unpacked = []
        original = engine.unpack_shard_payload

        def recording(payload):
            columns = original(payload)
            unpacked.append((len(columns.x509_columns["fingerprint"]),
                             len(columns.cert_fingerprints)))
            return columns

        monkeypatch.setattr(engine, "unpack_shard_payload", recording)
        for jobs in (1, 2):
            unpacked.clear()
            ingest_shards(corpus["shards"], jobs=jobs)
            assert len(unpacked) == len(corpus["shards"])
            (owner_rows, owner_fps), *others = unpacked
            assert owner_rows == owner_fps > 0
            assert others == [(0, 0)] * (len(corpus["shards"]) - 1)


def cert_view(chains):
    """Every chain's certificates as (fingerprint, subject, issuer)."""
    return [(key, tuple((cert.fingerprint, str(cert.subject),
                         str(cert.issuer))
                        for cert in chain.certificates))
            for key, chain in chains.items()]


@pytest.fixture(scope="module")
def paired(tmp_path_factory):
    """Three SSL shards, each with its own x509 file.

    ``x509.log.001`` gives one certificate a different subject than the
    other files do; ``x509.log.002`` lacks a certificate that its SSL
    shard references.
    """
    dataset = cached_campus_dataset(seed="par-eq", scale="small")
    base = tmp_path_factory.mktemp("paired")
    ssl_path, _ = dataset.write_zeek_logs(str(base / "whole"))
    shard_dir = base / "shards"
    ssl_shards = split_zeek_log(ssl_path, str(shard_dir), 3)

    def chains_in(path):
        _, rows = read_zeek_log(path)
        return [tuple(row["cert_chain_fps"] or ()) for row in rows]

    first = set(chains_in(ssl_shards[0]))
    in_first = {fp for key in first for fp in key}
    # A certificate of a chain first seen in shard 1 that shard 0 also
    # uses: chains first seen in shard 0 take file 0's subject for it,
    # chains first seen in shard 1 take file 1's.
    variant = next(fp for key in chains_in(ssl_shards[1])
                   if key not in first for fp in key if fp in in_first)
    absent = chains_in(ssl_shards[2])[0][0]
    records = dataset.x509_records
    tables = [
        records,
        [dataclasses.replace(record,
                             certificate_subject="CN=paired variant,O=Test")
         if record.fingerprint == variant else record
         for record in records],
        [record for record in records if record.fingerprint != absent]]
    for index, table in enumerate(tables):
        write_zeek_log(str(shard_dir / f"x509.log.{index:03d}"), "x509",
                       X509Record.FIELDS, X509Record.TYPES,
                       [record.to_row() for record in table])
    shards = discover_shards(str(shard_dir))
    assert [spec.x509_path for spec in shards] == [
        str(shard_dir / f"x509.log.{index:03d}") for index in range(3)]
    return {"shards": shards, "variant": variant}


class TestPairedX509Files:
    def test_columnar_matches_rowwise(self, paired):
        shards = paired["shards"]
        for jobs in (1, 2):
            columnar = ingest_shards(shards, jobs=jobs)
            rowwise = ingest_shards(shards, jobs=jobs, columnar=False)
            assert canon(columnar.chains) == canon(rowwise.chains)
            assert cert_view(columnar.chains) == cert_view(rowwise.chains)
            assert columnar.missing_certs == rowwise.missing_certs > 0
            assert columnar.cert_fingerprints == rowwise.cert_fingerprints
            assert columnar.x509_rows == rowwise.x509_rows == sum(
                data_rows(spec.x509_path) for spec in shards)

    def test_each_chain_takes_its_first_shards_certificates(self, paired):
        chains = ingest_shards(paired["shards"], jobs=2).chains
        subjects = {subject for _, certs in cert_view(chains)
                    for fingerprint, subject, _ in certs
                    if fingerprint == paired["variant"]}
        assert len(subjects) == 2
        assert "CN=paired variant,O=Test" in subjects


class TestJournalOwnerIdentity:
    def test_new_owner_is_recomputed_not_replayed(self, corpus, tmp_path):
        shards = corpus["shards"]
        with RunJournal(str(tmp_path / "journal")) as journal:
            ingest_shards(shards, jobs=2,
                          supervise=SupervisorConfig(journal=journal))
        # Without shard 0, shard 1 owns the broadcast x509.log; its
        # journaled non-owner payload must not stand in for an owner's.
        with RunJournal(str(tmp_path / "journal")) as journal:
            resumed = ingest_shards(
                shards[1:], jobs=2,
                supervise=SupervisorConfig(journal=journal, resume=True))
        assert resumed.supervisor.journal_replayed == len(shards) - 2
        fresh = ingest_shards(shards[1:], jobs=2)
        assert canon(resumed.chains) == canon(fresh.chains)
        assert cert_view(resumed.chains) == cert_view(fresh.chains)
        assert resumed.cert_fingerprints == fresh.cert_fingerprints
        assert (resumed.ssl_rows, resumed.x509_rows,
                resumed.missing_certs) == \
            (fresh.ssl_rows, fresh.x509_rows, fresh.missing_certs)
        assert resumed.x509_rows > 0


#: Hangs ingest shard 0 on its first pool attempt and no other shard
#: (seed-searched over the four-shard corpus): with no retries and no
#: serial fallback the supervisor really drops the x509 file's owner.
DROP_OWNER = FaultPlan(seed="drop-owner-11", worker_hang_rate=0.5)


class TestDroppedOwner:
    def test_survivors_still_get_the_certificate_table(self, corpus,
                                                       monkeypatch):
        # With serial fallback off, the supervisor drops a poison task's
        # result (None); when that task owned the x509 file, the driver
        # rebuilds the table the surviving shards need itself.
        monkeypatch.setenv(NO_CPU_CLAMP_VAR, "1")
        monkeypatch.setenv(HANG_SECONDS_VAR, "60")
        shards = corpus["shards"]
        ingest = ingest_shards(shards, jobs=2, supervise=SupervisorConfig(
            plan=DROP_OWNER, max_task_retries=0, task_timeout=5.0,
            serial_fallback=False))
        assert ingest.supervisor.results[0] is None
        assert ingest.supervisor.quarantined == ["ingest:0000"]
        fresh = ingest_shards(shards[1:], jobs=2)
        assert canon(ingest.chains) == canon(fresh.chains)
        assert cert_view(ingest.chains) == cert_view(fresh.chains)
        assert ingest.cert_fingerprints == fresh.cert_fingerprints
        assert ingest.ssl_rows == fresh.ssl_rows


def relanded(order):
    """A ``run_supervised`` whose results reach the merger in ``order``.

    The dispatch runs as usual; the results it hands to ``on_complete``
    are held back and re-delivered, after the pool, in the order
    ``order(landed)`` gives — so the merger has to buffer them.
    """
    dispatch = engine.run_supervised

    def run(*args, on_complete=None, **kwargs):
        landed = []
        outcome = dispatch(*args, on_complete=lambda i, payload:
                           landed.append((i, payload)), **kwargs)
        for i, payload in order(sorted(landed, key=lambda item: item[0])):
            on_complete(i, payload)
        return outcome
    return run


def shuffled(landed):
    landed = list(landed)
    random.Random(7).shuffle(landed)
    return landed


def observable(ingest):
    """Everything a merge order could move: chains (dict order, Counter
    key order, usage), certificates, fingerprints, tallies."""
    return (canon(ingest.chains), cert_view(ingest.chains),
            ingest.cert_fingerprints,
            (ingest.ssl_rows, ingest.x509_rows, ingest.joined,
             ingest.missing_certs, ingest.aggregated, ingest.skipped_empty))


class TestStreamingMerge:
    """The driver merges as results land; the fold must not notice."""

    @pytest.fixture(params=["corpus", "paired"])
    def shards(self, request, corpus, paired):
        return corpus["shards"] if request.param == "corpus" \
            else paired["shards"]

    @pytest.fixture()
    def in_order(self, shards):
        """The batch fold: every result merged in shard order after the
        pool has drained."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "run_supervised", relanded(list))
            return observable(ingest_shards(shards, jobs=2))

    @pytest.mark.parametrize("order", [list, lambda landed: landed[::-1],
                                       shuffled],
                             ids=["in-order", "reverse", "shuffled"])
    def test_landing_order_does_not_matter(self, shards, in_order, order,
                                           monkeypatch):
        monkeypatch.setattr(engine, "run_supervised", relanded(order))
        assert observable(ingest_shards(shards, jobs=2)) == in_order

    @pytest.mark.parametrize("jobs", JOBS_MATRIX)
    def test_live_merge_equals_the_batch_fold(self, shards, in_order, jobs):
        assert observable(ingest_shards(shards, jobs=jobs)) == in_order

    def test_inline_run_merges_each_shard_as_it_finishes(self, corpus,
                                                         monkeypatch):
        events = []
        run_shard = engine.process_shard
        merge = engine._ShardMerger._merge

        def shard(task):
            events.append(("shard", task.index))
            return run_shard(task)

        def merged(self, task, aggregate):
            events.append(("merge", task.index))
            return merge(self, task, aggregate)

        monkeypatch.setattr(engine, "process_shard", shard)
        monkeypatch.setattr(engine._ShardMerger, "_merge", merged)
        ingest_shards(corpus["shards"], jobs=1)
        assert events == [(kind, spec.index) for spec in corpus["shards"]
                          for kind in ("shard", "merge")]

    def test_resume_with_a_partial_journal(self, shards, in_order,
                                           tmp_path):
        # Journal shards 0 and 2 only (their fingerprints, ownership
        # included, match the full run's); the resume replays those two
        # ahead of the pool, so shard 2 lands before shard 1.
        with RunJournal(str(tmp_path / "journal")) as journal:
            ingest_shards([shards[0], shards[2]], jobs=2,
                          supervise=SupervisorConfig(journal=journal))
        with RunJournal(str(tmp_path / "journal")) as journal:
            resumed = ingest_shards(
                shards, jobs=2,
                supervise=SupervisorConfig(journal=journal, resume=True))
        assert resumed.supervisor.journal_replayed == 2
        assert observable(resumed) == in_order

    def test_strict_error_in_a_middle_shard(self, corpus, tmp_path):
        # Shards 1 and 2 both hold a malformed row: whatever merged
        # before, the error raised is shard 1's, as a serial loop's.
        shard_dir = tmp_path / "broken"
        shard_dir.mkdir()
        specs = []
        for spec in corpus["shards"]:
            ssl_path = shard_dir / os.path.basename(spec.ssl_path)
            shutil.copy(spec.ssl_path, ssl_path)
            if spec.index in (1, 2):
                with open(ssl_path, "a", encoding="utf-8") as handle:
                    handle.write("not\ta\tzeek\trow\n")
            specs.append(dataclasses.replace(spec, ssl_path=str(ssl_path)))
        for jobs in JOBS_MATRIX:
            with pytest.raises(ZeekFormatError) as caught:
                ingest_shards(specs, jobs=jobs)
            assert caught.value.source == specs[1].ssl_path
