"""The reduce side of parallel ingestion: fan out shards, merge partials.

:func:`ingest_shards` is the engine's entry point.  It dispatches one
:func:`~repro.parallel.worker.process_shard` call per shard across a
``ProcessPoolExecutor`` (``jobs=1`` runs inline — no pool, no pickling)
and folds the returned partials into a single chain map with
:meth:`ChainUsage.merge` semantics.  On the columnar path the packed
partials fold straight into one ``{key: ChainUsage}`` map
(:func:`~repro.core.packed.merge_shard_columns`), each x509 file's
certificate table is rebuilt once — from the payload of the shard that
owns the file — and ``ObservedChain`` objects are built once at the end.

**Determinism.**  The merged output is byte-identical to a serial pass
over the same shards regardless of worker count or completion order:

* partials are merged strictly in shard-index order, so the chain dict's
  insertion order — and every ``Counter``'s key order inside the usage
  accumulators — reproduces the order a single process would have
  produced scanning shard 0, then 1, …;
* workers leave no direct metrics behind (their observations are
  captured into telemetry and restored away — see
  :mod:`repro.obs.sink`); the driver derives the canonical
  ``repro_zeek_*`` / ``repro_chain_*`` values from the merged totals
  and attaches each shard's telemetry in shard order, so metric exports
  do not depend on ``--jobs`` either;
* fault-injection draws are keyed by (plan seed, line number) inside
  each shard file, independent of which worker reads it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import (Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from ..core.chain import ChainUsage, ObservedChain
from ..core.packed import (ShardColumns, materialize_chains,
                           merge_shard_columns, unpack_shard_payload)
from ..faults.plan import FaultPlan
from ..obs import instruments
from ..obs.logging import get_logger, kv
from ..obs.sink import capture_telemetry, get_sink
from ..obs.tracing import trace_span
from ..resilience.checkpoint import input_fingerprint
from ..resilience.quarantine import Quarantine
from ..zeek.records import X509Record
from ..zeek.tap import reconstruct_certificate
from .pool import clamp_jobs
from .shards import ShardSpec
from .supervisor import (SupervisedRun, SupervisorConfig, resolve_config,
                         run_supervised)
from .worker import (ColumnarShardAggregate, ShardAggregate, ShardTask,
                     process_shard, process_shard_columnar)

__all__ = ["IngestResult", "ingest_shards", "ingest_logs"]

log = get_logger(__name__)


@dataclass
class IngestResult:
    """The merged outcome of one parallel (or inline) ingest."""

    chains: Dict[Tuple[str, ...], ObservedChain] = field(default_factory=dict)
    #: Distinct certificate fingerprints, first-seen order across shards.
    cert_fingerprints: List[str] = field(default_factory=list)
    ssl_rows: int = 0
    x509_rows: int = 0
    joined: int = 0
    missing_certs: int = 0
    aggregated: int = 0
    skipped_empty: int = 0
    #: The worker count actually used (requested, clamped to CPU count and
    #: shard count).
    jobs: int = 1
    #: The worker count the caller asked for, before clamping.
    requested_jobs: int = 1
    shard_count: int = 0
    quarantine: Optional[Quarantine] = None
    #: How the supervised dispatch went (incidents, retries, replays).
    supervisor: Optional[SupervisedRun] = None


def _shard_fingerprint(task: ShardTask) -> str:
    """Journal identity of one shard task: paths, sizes, configuration."""
    def size(path: str) -> int:
        try:
            return os.path.getsize(path)
        except OSError:
            return -1
    return input_fingerprint([
        "ingest-shard", task.index, task.ssl_path, size(task.ssl_path),
        task.x509_path, size(task.x509_path), task.plan, task.tolerant,
        task.compiled, task.columnar, task.ships_certificates,
    ])


def ingest_shards(shards: Iterable[ShardSpec], *,
                  jobs: Optional[int] = None,
                  plan: Optional[FaultPlan] = None,
                  quarantine: Optional[Quarantine] = None,
                  compiled: bool = True,
                  columnar: bool = True,
                  supervise: Optional[SupervisorConfig] = None
                  ) -> IngestResult:
    """Map shards over a process pool and reduce to one chain map.

    ``jobs=None`` uses ``os.cpu_count()``; the effective count is capped
    at the CPU count (extra workers past the cores only add pool and
    pickling overhead — on a 1-CPU box ``--jobs 4`` used to run *slower*
    than serial for exactly that reason) and at the shard count (no idle
    workers).  The request and the clamped value are both recorded on the
    result (``requested_jobs`` / ``jobs``).  Passing a ``quarantine``
    switches every worker to tolerant reads, and the workers' captured
    records are replayed into it — in shard order — so the driver-side
    sink (and its metrics) end up exactly as a serial tolerant run's
    would.  Strict mode re-raises the first worker's
    :class:`~repro.zeek.format.ZeekFormatError` in the caller.

    Dispatch runs through :func:`~repro.parallel.supervisor.run_supervised`
    (``supervise`` tunes deadlines/retries/journaling): a worker crash or
    hang is retried on a rebuilt pool and, past the retry budget, the
    shard is quarantined and recovered in-driver — the merge still folds
    partials in shard-index order, so the output is byte-identical to an
    undisturbed run.

    ``columnar=True`` (the default) routes workers through the
    struct-of-arrays hot path: logs decode into typed columns, chain
    aggregation folds over arrays, and partials come home as packed
    column buffers that the driver folds directly into one chain map
    (see :mod:`repro.core.packed`).  ``columnar=False`` is the escape
    hatch back to the row-object workers (where ``compiled`` selects
    the row codec); outputs are byte-identical either way.

    Each distinct ``x509_path`` has one *owner*, its lowest-index
    shard: only the owner ships the certificate table and counts the
    file's rows, quarantine records and injected faults.
    """
    shard_list = sorted(shards, key=lambda spec: spec.index)
    requested, jobs = clamp_jobs(jobs, len(shard_list))
    owners: Dict[str, int] = {}
    for spec in shard_list:
        owners.setdefault(spec.x509_path, spec.index)
    tasks = [ShardTask(index=spec.index, ssl_path=spec.ssl_path,
                       x509_path=spec.x509_path, plan=plan,
                       tolerant=quarantine is not None, compiled=compiled,
                       columnar=columnar,
                       ships_certificates=owners[spec.x509_path]
                       == spec.index)
             for spec in shard_list]
    config = resolve_config(supervise, plan=plan, quarantine=quarantine)
    with trace_span("parallel_ingest", shards=len(tasks), jobs=jobs):
        outcome = run_supervised(
            "ingest", tasks, process_shard, jobs=jobs, config=config,
            task_ids=lambda task, i: f"ingest:{task.index:04d}",
            fingerprint_fn=_shard_fingerprint)
    done = [(task, aggregate)
            for task, aggregate in zip(tasks, outcome.results)
            if aggregate is not None]
    aggregates = [aggregate for _, aggregate in done]
    if columnar:
        chains, cert_fingerprints = _merge_packed(done)
    else:
        chains, cert_fingerprints = _merge_rows(aggregates)
    result = _reduce(aggregates, chains, cert_fingerprints, jobs=jobs,
                     quarantine=quarantine)
    result.supervisor = outcome
    result.requested_jobs = requested
    log.debug("parallel ingest complete", extra=kv(
        shards=len(tasks), jobs=jobs, requested_jobs=requested,
        ssl_rows=result.ssl_rows, chains=len(result.chains)))
    return result


def ingest_logs(ssl_path: str, x509_path: str, *,
                jobs: Optional[int] = None,
                plan: Optional[FaultPlan] = None,
                quarantine: Optional[Quarantine] = None,
                compiled: bool = True,
                columnar: bool = True) -> IngestResult:
    """Ingest a single unsharded SSL/X509 pair through the same engine."""
    shard = ShardSpec(index=0, ssl_path=ssl_path, x509_path=x509_path)
    return ingest_shards([shard], jobs=jobs or 1, plan=plan,
                         quarantine=quarantine, compiled=compiled,
                         columnar=columnar)


def _merge_packed(done: List[Tuple[ShardTask, ColumnarShardAggregate]]
                  ) -> Tuple[Dict[tuple, ObservedChain], List[str]]:
    """Fold packed partials into one chain map, in shard order.

    Usage columns merge straight into one ``{key: ChainUsage}`` map.
    Each x509 file's certificate table is rebuilt once, from its
    owner's payload; every key takes its certificates from the table of
    the first shard that contained it, and ``ObservedChain`` objects are
    built once, after the last shard.  The canonical
    ``repro_columnar_*`` metrics come from the worker-reported stats.
    """
    usages: Dict[tuple, ChainUsage] = {}
    #: x509 path -> certificates by fingerprint
    tables: Dict[str, dict] = {}
    #: x509 path -> the keys that take their certificates from it
    origins: Dict[str, List[tuple]] = {}
    cert_fingerprints: List[str] = []
    seen_fps = set()
    for task, aggregate in done:
        columns = unpack_shard_payload(aggregate.payload)
        path = task.x509_path
        if path not in tables:
            owner = (columns if task.ships_certificates
                     else _dropped_owner(task))
            tables[path] = _rebuild_certificates(owner.x509_columns)
            # Later shards of this file would add no new fingerprint.
            for fingerprint in owner.cert_fingerprints:
                if fingerprint not in seen_fps:
                    seen_fps.add(fingerprint)
                    cert_fingerprints.append(fingerprint)
        origins.setdefault(path, []).extend(
            merge_shard_columns(usages, columns))
        instruments.COLUMNAR_PAYLOAD_BYTES.inc(len(aggregate.payload))
        for stats in (aggregate.x509_stats, aggregate.ssl_stats):
            if stats is not None:
                stats.emit()
    built: Dict[tuple, ObservedChain] = {}
    for path, keys in origins.items():
        built.update(materialize_chains(
            keys, [usages[key] for key in keys], tables[path]))
    if len(origins) > 1:  # back into merged (first-seen) key order
        built = {key: built[key] for key in usages}
    return built, cert_fingerprints


def _rebuild_certificates(spec: Dict[str, list]) -> dict:
    """One x509 file's certificate table from its owner's X509 section.

    The rebuild (certificate reconstruction, DN parsing) churns the same
    memo caches a worker would have touched, so it runs under a
    *discarded* telemetry capture: the row path's workers capture that
    churn away and never replay it, and metric exports must not depend
    on which path — or which ``--jobs`` — produced the result.
    """
    with capture_telemetry("materialize", 0):
        return {
            fingerprint: reconstruct_certificate(X509Record(
                ts=ts, fingerprint=fingerprint, certificate_version=version,
                certificate_serial=serial, certificate_subject=subject,
                certificate_issuer=issuer,
                certificate_not_valid_before=not_before,
                certificate_not_valid_after=not_after,
                certificate_key_alg=key_alg, certificate_sig_alg=sig_alg,
                certificate_key_length=key_length,
                san_dns=tuple(san or ()), basic_constraints_ca=bc_ca,
                basic_constraints_path_len=bc_path_len))
            for ts, fingerprint, version, serial, subject, issuer,
            not_before, not_after, key_alg, sig_alg, key_length, san,
            bc_ca, bc_path_len in zip(
                spec["ts"], spec["fingerprint"],
                spec["certificate.version"], spec["certificate.serial"],
                spec["certificate.subject"], spec["certificate.issuer"],
                spec["certificate.not_valid_before"],
                spec["certificate.not_valid_after"],
                spec["certificate.key_alg"], spec["certificate.sig_alg"],
                spec["certificate.key_length"], spec["san.dns"],
                spec["basic_constraints.ca"],
                spec["basic_constraints.path_len"])}


def _dropped_owner(task: ShardTask) -> ShardColumns:
    """An owner's payload for ``task``'s x509 file, recomputed in-driver.

    Needed only when the supervisor dropped the owner's result
    (``serial_fallback=False``).  Its tallies stay dropped: the rerun's
    telemetry is captured and discarded, and only its X509 section and
    fingerprint order are used.
    """
    with capture_telemetry("ingest", task.index):
        aggregate = process_shard_columnar(
            replace(task, ships_certificates=True))
    return unpack_shard_payload(aggregate.payload)


def _merge_rows(aggregates: List[ShardAggregate]
                ) -> Tuple[Dict[tuple, ObservedChain], List[str]]:
    """The row path's merge: partial chain maps, in shard order."""
    merged: Dict[tuple, ObservedChain] = {}
    cert_fingerprints: List[str] = []
    seen_fps = set()
    for aggregate in aggregates:
        for key, chain in aggregate.chains.items():
            existing = merged.get(key)
            if existing is None:
                merged[key] = chain
            else:
                existing.usage.merge(chain.usage)
        for fingerprint in aggregate.cert_fingerprints:
            if fingerprint not in seen_fps:
                seen_fps.add(fingerprint)
                cert_fingerprints.append(fingerprint)
    return merged, cert_fingerprints


def _reduce(aggregates: Sequence[Union[ShardAggregate,
                                       ColumnarShardAggregate]],
            chains: Dict[tuple, ObservedChain],
            cert_fingerprints: List[str], *, jobs: int,
            quarantine: Optional[Quarantine]) -> IngestResult:
    """Tally partials in shard-index order; emit the canonical metrics."""
    result = IngestResult(chains=chains, cert_fingerprints=cert_fingerprints,
                          jobs=jobs, shard_count=len(aggregates),
                          quarantine=quarantine)
    sink = get_sink()
    for aggregate in aggregates:
        # The fault-kind split is the one canonical value only the
        # worker saw; everything else captured rides along create-only.
        sink.attach(aggregate.telemetry,
                    replay=("repro_faults_injected_total",))
        if quarantine is not None:
            for record in aggregate.quarantined:
                quarantine.add(source=record.source, line=record.line,
                               reason=record.reason, detail=record.detail,
                               raw=record.raw)
        result.ssl_rows += aggregate.ssl_rows
        result.x509_rows += aggregate.x509_rows
        result.joined += aggregate.joined
        result.missing_certs += aggregate.missing_certs
        result.aggregated += aggregate.aggregated
        result.skipped_empty += aggregate.skipped_empty
        # Canonical per-shard metrics, exactly as the serial readers
        # would have flushed them (one labelled inc per non-empty log).
        if aggregate.ssl_rows:
            instruments.ZEEK_ROWS.inc(aggregate.ssl_rows, direction="read",
                                      path=aggregate.ssl_log_label)
            instruments.PARALLEL_SHARD_ROWS.inc(
                aggregate.ssl_rows, path=aggregate.ssl_log_label)
        if aggregate.x509_rows:
            instruments.ZEEK_ROWS.inc(aggregate.x509_rows, direction="read",
                                      path=aggregate.x509_log_label)
            instruments.PARALLEL_SHARD_ROWS.inc(
                aggregate.x509_rows, path=aggregate.x509_log_label)
        instruments.PARALLEL_SHARDS.inc(outcome="ok")
        instruments.PARALLEL_SHARD_SECONDS.observe(aggregate.seconds)
    instruments.PARALLEL_WORKERS.set(jobs)
    instruments.ZEEK_JOIN_CONNECTIONS.inc(result.joined)
    instruments.ZEEK_JOIN_MISSING_CERTS.inc(result.missing_certs)
    instruments.CHAIN_CONN_AGGREGATED.inc(result.aggregated)
    instruments.CHAIN_CONN_SKIPPED.inc(result.skipped_empty)
    instruments.CHAIN_DISTINCT.inc(len(chains))
    if result.missing_certs:
        log.warning("join dropped unknown certificate references",
                    extra=kv(missing=result.missing_certs,
                             joined=result.joined))
    return result
