"""Traced segments: the pipeline redone as timed calls into each layer.

    python3 perfbench/layers.py SEGMENT --seed S --scale X --jobs J --work DIR

Each segment runs in a fresh process, so its memos start as cold as a
CLI invocation's.  Every top-level step is one timed call into a
layer's public functions; the steps run back to back, so their times
should add up to the segment's wall clock (``run.py`` checks that).
Counters that need extra work (pickled task sizes, digests, cache
ratios) are taken after the wall clock stops.  Prints one JSON object:
``wall_s``, ``steps`` (top-level step → seconds), ``metrics`` (name →
[value, unit]), ``failures`` and segment-specific cross-check fields.

Segments, in the order ``run.py`` runs them:

* ``generate-layers`` — context → simulate (validation counted) → tap →
  serial Zeek write-out into ``DIR/trace-serial``;
* ``generate-engine`` — ``generate_dataset`` into ``DIR/trace-gen``;
* ``ingest-engine`` — ``ingest_shards`` + ``analyze_partitions`` over
  ``DIR/trace-gen`` as the CLI runs them, then the serial core stages;
* ``ingest-layers`` — the engine's per-shard work unrolled: columnar
  reads, the worker body, unpack, certificate rebuild, materialize,
  merge;
* ``paper`` — dataset → join → interception → analysis → structures →
  every experiment.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List

from common import (data_rows_digest, diagonal, emit, sha256_bytes,
                    truth_confusion)

from repro.campus.dataset import (build_campus_dataset,
                                  build_generation_context, resolve_scale)
from repro.campus.profiles import build_vendor_directory
from repro.campus.workload import GENERATION_SHARDS, STUDY_START
from repro.core.categorization import ChainCategorizer, ChainCategory
from repro.core.chain import aggregate_chains
from repro.core.classification import CertificateClassifier
from repro.core.dga import DGADetector
from repro.core.hybrid import HybridAnalyzer
from repro.core.interception import InterceptionDetector
from repro.core.packed import (X509_COLUMN_SPEC, materialize_chains,
                               unpack_shard_payload)
from repro.experiments.base import registry as experiment_registry
from repro.experiments.base import run_experiment
import repro.experiments.cli  # noqa: F401  (registers every experiment)
from repro.obs.metrics import get_registry
from repro.obs.sink import get_sink
from repro.parallel import (discover_shards, generate_dataset, ingest_shards)
from repro.parallel.worker import ShardTask, process_shard_columnar
from repro.resilience import CircuitBreaker
from repro.tls.policy import BrowserPolicy
from repro.truststores import build_public_pki
from repro.zeek import tap as zeek_tap
from repro.zeek.columnar import read_zeek_log_columnar
from repro.zeek.format import write_zeek_log
from repro.zeek.records import SSLRecord, X509Record
from repro.zeek.tap import MonitoringTap

try:
    from repro.parallel import analysis as partitioned
except ImportError:  # the partitioned analysis engine may be deleted;
    partitioned = None  # its metrics then read 0 and its checks are skipped

#: Experiment id -> metric.  The three that stand for a layer, then each
#: experiment taking >= 1% of the ``-e all`` suite at the default scale
#: (measured at seed 0); the rest are summed into ``experiments.other_s``.
EXPERIMENT_METRICS = {
    "table5": "validation.table5_s",
    "section5": "scan.section5_s",
    "extension-survey": "scan.survey_s",
    **{exp_id: f"experiments.{exp_id}_s" for exp_id in (
        "ablation-blindspot", "ablation-crosssign", "ablation-leafrule",
        "ablation-truststores", "extension-timeline", "figure7", "figure8",
        "section6-overhead")},
}

#: ``repro_<family>`` counters whose hit/miss labels give the cache ratios.
HIT_RATIO_FAMILIES = {
    "x509.der_memo_hit_ratio": "repro_der_encode_cache_lookups_total",
    "x509.dn_cache_hit_ratio": "repro_dn_parse_cache_lookups_total",
    "core.match_memo_hit_ratio": "repro_match_memo_lookups_total",
    "ct.verdict_memo_hit_ratio": "repro_ct_verdict_memo_lookups_total",
}

#: The columns an ingest worker reads (see ``repro.parallel.worker``).
SSL_PROJECTION = frozenset({"ts", "id.orig_h", "id.resp_h", "id.resp_p",
                            "established", "server_name", "cert_chain_fps"})
SSL_INTERN = ("cert_chain_fps", "server_name")
X509_PROJECTION = frozenset(name for name, _ in X509_COLUMN_SPEC)


class Segment:
    """Times back-to-back layer steps and collects metrics."""

    def __init__(self) -> None:
        self.steps: Dict[str, float] = {}
        self.metrics: Dict[str, list] = {}
        self.failures: List[str] = []
        self.extra: dict = {}
        self.started = time.perf_counter()
        self.wall_s = 0.0

    @contextmanager
    def step(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.steps[name] = (self.steps.get(name, 0.0)
                                 + time.perf_counter() - start)

    def stop(self) -> None:
        self.wall_s = time.perf_counter() - self.started

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = [value, unit]

    def report_steps(self, names=None) -> None:
        """Report each top-level step's time as the metric ``<step>_s``."""
        for name in names or self.steps:
            self.metric(f"{name}_s", self.steps[name], "s")

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def payload(self) -> dict:
        return dict(self.extra, wall_s=self.wall_s, steps=self.steps,
                    metrics=self.metrics, failures=self.failures)


class CallCounter:
    """Counts calls to a function and the distinct keys they carried."""

    def __init__(self, key: Callable) -> None:
        self.key = key
        self.calls = 0
        self.seconds = 0.0
        self.keys: set = set()

    def wrap(self, function: Callable) -> Callable:
        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self.calls += 1
                self.keys.add(self.key(*args, **kwargs))
        return counted

    @property
    def distinct_ratio(self) -> float:
        return len(self.keys) / self.calls if self.calls else 0.0


def hit_ratios(segment: Segment, names) -> None:
    """Cache hit ratios from the process's metrics registry snapshot."""
    snapshot = get_registry().snapshot()
    for name in names:
        family = HIT_RATIO_FAMILIES[name]
        values = {sample["labels"].get("result"): sample["value"]
                  for sample in snapshot.get(family, {}).get("samples", ())}
        lookups = values.get("hit", 0.0) + values.get("miss", 0.0)
        segment.metric(name, values.get("hit", 0.0) / lookups
                       if lookups else 0.0, "ratio")


def worker_seconds(kind: str) -> List[float]:
    """Per-unit busy seconds of the pool workers, from their telemetry."""
    return [t.duration_s for t in get_sink().records if t.kind == kind]


def chain_map_digest(chains) -> str:
    """Identity of a chain map: keys and usage counts, order-free."""
    digest = hashlib.sha256()
    for key in sorted(chains):
        usage = chains[key].usage
        digest.update(repr((key, usage.connections, usage.established,
                            usage.sni_present, sorted(usage.client_ips),
                            sorted(usage.ports.items()))).encode())
    return digest.hexdigest()


# -- segments -------------------------------------------------------------------


def generate_layers(args) -> Segment:
    out = os.path.join(args.work, "trace-serial")
    os.makedirs(out, exist_ok=True)
    validate = CallCounter(lambda policy, presented, **_: (
        id(policy), tuple(c.fingerprint for c in presented)))
    segment = Segment()
    with segment.step("campus.context"):
        context = build_generation_context(seed=args.seed, scale=args.scale)
        generator = context.generator
        plans = [generator.plan_for(spec) for spec in context.specs]
    original = BrowserPolicy.validate
    BrowserPolicy.validate = validate.wrap(original)
    try:
        with segment.step("campus.simulate"):
            records = [record for shard in range(GENERATION_SHARDS)
                       for record in generator.generate_shard(
                           context.specs, shard, plans=plans)]
    finally:
        BrowserPolicy.validate = original
    with segment.step("zeek.tap"):
        monitor = MonitoringTap()
        monitor.observe_all(records)
    ssl_path = os.path.join(out, "ssl.log")
    x509_path = os.path.join(out, "x509.log")
    with segment.step("zeek.write"):
        rows = write_zeek_log(ssl_path, "ssl", SSLRecord.FIELDS,
                              SSLRecord.TYPES, monitor.ssl_rows(),
                              open_time=STUDY_START)
        rows += write_zeek_log(x509_path, "x509", X509Record.FIELDS,
                               X509Record.TYPES, monitor.x509_rows(),
                               open_time=STUDY_START)
    segment.stop()

    segment.report_steps()
    segment.metric("campus.simulate_conns_per_s",
                   len(records) / segment.steps["campus.simulate"], "1/s")
    segment.metric("tls.validate_s", validate.seconds, "s")
    segment.metric("tls.validate_calls", validate.calls, "count")
    segment.metric("tls.validate_distinct_ratio", validate.distinct_ratio,
                   "ratio")
    segment.metric("zeek.write_rows_per_s",
                   rows / segment.steps["zeek.write"], "1/s")
    segment.metric("zeek.bytes_written", os.path.getsize(ssl_path)
                   + os.path.getsize(x509_path), "bytes")
    ssl_digest, ssl_rows = data_rows_digest([ssl_path])
    with open(x509_path, "rb") as handle:
        x509_digest = sha256_bytes(handle.read())
    segment.extra["serial"] = {"ssl_rows": ssl_rows,
                               "ssl_rows_sha256": ssl_digest,
                               "x509_sha256": x509_digest}
    segment.check(ssl_rows == len(records),
                  f"wrote {ssl_rows} ssl rows for {len(records)} records")
    return segment


def generate_engine(args) -> Segment:
    segment = Segment()
    with segment.step("parallel.generate"):
        result = generate_dataset(os.path.join(args.work, "trace-gen"),
                                  seed=args.seed,
                                  scale=resolve_scale(args.scale),
                                  jobs=args.jobs)
    segment.stop()
    elapsed = segment.steps["parallel.generate"]
    shards = worker_seconds("generate")
    segment.report_steps()
    segment.metric("parallel.generate.shard_s_median",
                   statistics.median(shards), "s")
    segment.metric("parallel.generate.shard_s_max", max(shards), "s")
    segment.metric("parallel.generate.busy_ratio",
                   sum(shards) / (result.jobs * elapsed), "ratio")
    segment.check(len(shards) == GENERATION_SHARDS,
                  f"{len(shards)} shard telemetry records")
    return segment


def ingest_engine(args) -> Segment:
    shards = discover_shards(os.path.join(args.work, "trace-gen"))
    # Count certificate rebuilds wherever the engine calls them from.
    reconstruct = CallCounter(lambda record: record.fingerprint)
    original = zeek_tap.reconstruct_certificate
    counted = reconstruct.wrap(original)
    patched = [module for name, module in list(sys.modules.items())
               if name.startswith("repro.")
               and getattr(module, "reconstruct_certificate", None)
               is original]
    segment = Segment()
    for module in patched:
        module.reconstruct_certificate = counted
    try:
        with segment.step("parallel.ingest"):
            ingest = ingest_shards(shards, jobs=args.jobs)
    finally:
        for module in patched:
            module.reconstruct_certificate = original
    with segment.step("truststores.public_pki"):
        public_registry = build_public_pki().registry
    if partitioned is not None:
        with segment.step("parallel.analysis"):
            enriched = partitioned.analyze_partitions(
                ingest.chains, registry=public_registry, jobs=args.jobs)
    with segment.step("core.categorize"):
        classifier = CertificateClassifier(public_registry)
        categorized = ChainCategorizer(classifier, set()).categorize(
            ingest.chains.values())
    with segment.step("core.hybrid"):
        hybrid = HybridAnalyzer(classifier, None).analyze(
            categorized.chains(ChainCategory.HYBRID))
    with segment.step("core.dga"):
        DGADetector().detect(categorized.chains(ChainCategory.NON_PUBLIC_ONLY))
    segment.stop()

    segment.report_steps()
    busy = worker_seconds("ingest")
    segment.metric("parallel.ingest.shard_busy_s", sum(busy), "s")
    segment.metric("parallel.ingest.shard_s_max", max(busy), "s")
    segment.metric("parallel.ingest.handoff_s",
                   segment.steps["parallel.ingest"] - sum(busy) / ingest.jobs,
                   "s")
    segment.metric("zeek.reconstruct_calls", reconstruct.calls, "count")
    segment.metric("zeek.reconstruct_distinct_ratio",
                   reconstruct.distinct_ratio, "ratio")
    if partitioned is None:
        segment.metric("parallel.analysis_s", 0.0, "s")
        segment.metric("parallel.analysis.task_bytes", 0, "bytes")
    else:
        check_partitioned(segment, ingest.chains, public_registry,
                          categorized, hybrid, enriched)
    segment.extra["chains"] = chain_map_digest(ingest.chains)
    return segment


def check_partitioned(segment: Segment, chains, public_registry,
                      categorized, hybrid, enriched) -> None:
    """Pickled task bytes of the partitioned engine, and its agreement
    with the serial stages."""
    partitions = partitioned.DEFAULT_PARTITIONS
    buckets: List[list] = [[] for _ in range(partitions)]
    for key, chain in chains.items():
        buckets[partitioned.partition_index(key, partitions)].append(chain)
    segment.metric("parallel.analysis.task_bytes", sum(
        len(pickle.dumps(partitioned.AnalysisTask(
            index=i, chains=tuple(bucket), registry=public_registry,
            disclosures=None, interception_keys=frozenset())))
        for i, bucket in enumerate(buckets)), "bytes")
    serial = {chain.key: category.value
              for category, members in categorized.by_category.items()
              for chain in members}
    engine = {key: category.value
              for key, category in enriched.categories.items()}
    segment.check(serial == engine,
                  "serial categories differ from parallel.analysis")
    segment.check(len(hybrid.analyses) == len(enriched.hybrid_by_key),
                  "serial hybrid analyses differ from parallel.analysis")


def ingest_layers(args) -> Segment:
    shards = discover_shards(os.path.join(args.work, "trace-gen"))
    segment = Segment()
    with segment.step("zeek.read_x509"):
        x509_rows = read_zeek_log_columnar(shards[0].x509_path,
                                           project=X509_PROJECTION).rows
    with segment.step("zeek.read_ssl"):
        ssl_rows = sum(read_zeek_log_columnar(
            shard.ssl_path, intern=SSL_INTERN, project=SSL_PROJECTION).rows
            for shard in shards)
    with segment.step("core.packed.shard"):
        payloads = [process_shard_columnar(ShardTask(
            index=shard.index, ssl_path=shard.ssl_path,
            x509_path=shard.x509_path, columnar=True)).payload
            for shard in shards]
    with segment.step("core.packed.unpack"):
        unpacked = [unpack_shard_payload(payload) for payload in payloads]
    with segment.step("zeek.reconstruct"):
        certificates = []
        for columns in unpacked:
            table = columns.x509_columns
            records = [X509Record.from_row(dict(zip(table, values)))
                       for values in zip(*table.values())]
            certificates.append({
                record.fingerprint: zeek_tap.reconstruct_certificate(record)
                for record in records})
    with segment.step("core.packed.materialize"):
        partials = [materialize_chains(columns.chain_keys, columns.usages,
                                       certs)
                    for columns, certs in zip(unpacked, certificates)]
    with segment.step("core.merge"):
        merged: dict = {}
        for partial in partials:
            for key, chain in partial.items():
                existing = merged.get(key)
                if existing is None:
                    merged[key] = chain
                else:
                    existing.usage.merge(chain.usage)
    segment.stop()

    segment.report_steps()
    segment.metric("zeek.read_ssl_rows_per_s",
                   ssl_rows / segment.steps["zeek.read_ssl"], "1/s")
    segment.metric("core.packed.payload_bytes",
                   sum(len(payload) for payload in payloads), "bytes")
    hit_ratios(segment, ("x509.dn_cache_hit_ratio",))
    segment.check(x509_rows > 0 and ssl_rows > 0, "empty logs")
    segment.extra["chains"] = chain_map_digest(merged)
    return segment


def paper(args) -> Segment:
    segment = Segment()
    with segment.step("campus.dataset"):
        dataset = build_campus_dataset(seed=args.seed, scale=args.scale)
    with segment.step("zeek.join"):
        joined = dataset.joined()
    with segment.step("core.aggregate"):
        chains = aggregate_chains(joined)
    with segment.step("core.interception"):
        InterceptionDetector(CertificateClassifier(dataset.registry),
                             dataset.ct_index, build_vendor_directory(),
                             breaker=CircuitBreaker(name="ct")
                             ).detect(chains.values())
    with segment.step("core.analyze_connections"):
        analysis = dataset.analyze()
    with segment.step("core.structures"):
        for chain in analysis.chains.values():
            if chain.length > 1:
                analysis.structure_of(chain, require_leaf=True)
                analysis.structure_of(chain, require_leaf=False)
    experiments = sorted(experiment_registry())
    for exp_id in experiments:
        with segment.step(f"experiments.{exp_id}"):
            run_experiment(exp_id, dataset)
    segment.stop()

    segment.report_steps([step for step in segment.steps
                          if not step.startswith("experiments.")])
    other = 0.0
    for exp_id in experiments:
        seconds = segment.steps[f"experiments.{exp_id}"]
        name = EXPERIMENT_METRICS.get(exp_id)
        if name is None:
            other += seconds
        else:
            segment.metric(name, seconds, "s")
    segment.metric("experiments.other_s", other, "s")
    hit_ratios(segment, ("x509.der_memo_hit_ratio",
                         "core.match_memo_hit_ratio",
                         "ct.verdict_memo_hit_ratio"))
    hits, total = diagonal(truth_confusion(dataset, analysis))
    segment.extra.update(diagonal=hits, chains=total)
    return segment


SEGMENTS = {"generate-layers": generate_layers,
            "generate-engine": generate_engine,
            "ingest-engine": ingest_engine, "ingest-layers": ingest_layers,
            "paper": paper}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("segment", choices=SEGMENTS)
    parser.add_argument("--seed", default="0")
    parser.add_argument("--scale", default="default")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    emit(SEGMENTS[args.segment](args).payload())


if __name__ == "__main__":
    main()
