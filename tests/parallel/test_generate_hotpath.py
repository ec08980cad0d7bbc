"""The generation hot path changes speed, never bytes.

Generates the small-scale dataset twice per seed: once as shipped
(memoized validation, bulk UID draws, cached server addresses, hoisted
first-appearance scan, per-cell draw kernel, pool workers) and once
through the plain path (one ``choice`` per UID character, every
validation walked in full, every server address re-drawn, inline).  Both
the serial write-out and the shard files must match byte for byte.

The serial and pool paths share one draw kernel, so comparing them with
each other cannot catch a change of draw order.  Each seed is therefore
also rendered by a test-local copy of the per-connection loop that
predates the kernel (``TLSClient`` -> ``HandshakeSimulator.connect`` ->
``ssl_record_from_connection`` -> ``write_row``), and every output must
match that reference too.  No golden digest is involved, so the
comparison holds on any Python version.
"""

from __future__ import annotations

import os
import random
from datetime import timedelta

import pytest

from repro.campus.dataset import (build_campus_dataset,
                                  build_generation_context, resolve_scale)
from repro.campus.workload import (GENERATION_SHARDS, STUDY_START,
                                   WorkloadGenerator, shard_window)
from repro.obs.sink import get_sink
from repro.obs.tracing import get_tracer
from repro.parallel import generate as generate_module
from repro.parallel import generate_dataset
from repro.parallel.pool import NO_CPU_CLAMP_VAR
from repro.tls.handshake import HandshakeSimulator, TLSClient, TLSServer
from repro.tls.messages import TLSVersion
from repro.tls.policy import BrowserPolicy
from repro.zeek.format import ZeekLogWriter
from repro.zeek.records import (SSLRecord, X509Record,
                                ssl_record_from_connection,
                                x509_record_from_certificate)

SEEDS = [0, "ci-trace"]
ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def choice_uid(self) -> str:
    self._uid_counter += 1
    return "C" + "".join(self._rng.choice(ALPHABET) for _ in range(17))


def unmemoized_validate(self, presented, *, at):
    return self._validate(presented, at)


def redrawn_server_ip(self, spec) -> str:
    rng = random.Random(f"srvip:{spec.server_id}")
    return (f"{rng.choice((93, 104, 151, 172, 185, 198, 203))}."
            f"{rng.randint(1, 254)}.{rng.randint(1, 254)}."
            f"{rng.randint(1, 254)}")


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def write_out(seed, directory, jobs):
    """Serial ``ssl.log``/``x509.log`` plus a ``generate_dataset`` run."""
    scale = resolve_scale("small")
    serial = directory / "serial"
    dataset = build_campus_dataset(seed=seed, scale=scale)
    ssl_path, x509_path = dataset.write_zeek_logs(str(serial),
                                                  open_time=STUDY_START)
    shards = directory / "shards"
    result = generate_dataset(str(shards), seed=seed, scale=scale, jobs=jobs)
    return {"ssl": read_bytes(ssl_path), "x509": read_bytes(x509_path),
            "shards": str(shards), "jobs": result.jobs}


def reference_draw(rng, weighted):
    roll = rng.random()
    acc = 0.0
    for value, weight in weighted:
        acc += weight
        if roll < acc:
            return value
    return weighted[-1][0]


def reference_cell(generator, spec, plan, shard):
    """One cell, one ``TLSClient`` and ``connect`` per connection."""
    indices = [i for i, s in enumerate(plan.shard_of) if s == shard]
    if not indices:
        return
    stream = f"{generator.seed}:{shard:02d}:{plan.plan_id}"
    rng = random.Random(f"workload:{stream}")
    sim = HandshakeSimulator(seed=f"workload-hs:{stream}")
    server = TLSServer(
        ip=redrawn_server_ip(generator, spec), port=plan.port,
        chain=spec.chain,
        max_version=TLSVersion.TLS13 if plan.n_tls13 else TLSVersion.TLS12)
    start, span = shard_window(shard)
    mix = spec.mix.weights()
    for i in indices:
        kind = reference_draw(rng, mix)
        client = TLSClient(
            ip=plan.clients[rng.randrange(len(plan.clients))],
            policy=generator._policy_for(kind, spec),
            version=(TLSVersion.TLS13 if i >= plan.n_visible
                     else TLSVersion.TLS12),
            sends_sni=rng.random() < spec.sni_rate)
        when = STUDY_START + timedelta(seconds=start + rng.uniform(0, span))
        yield sim.connect(client, server, sni=spec.hostname,
                          when=when).record


def write_reference(seed, directory):
    """Every file the engine and the serial tap write, the pre-kernel way.

    ``ssl-NN.log`` per interval, one ``ssl.log`` holding every interval
    in order, and one first-appearance ``x509.log``.
    """
    context = build_generation_context(seed=seed, scale="small")
    generator = context.generator
    plans = [generator.plan_for(spec) for spec in context.specs]
    os.makedirs(directory)

    def writer(name, record_type, path):
        handle = open(os.path.join(directory, name), "w", encoding="utf-8")
        return handle, ZeekLogWriter(handle, path, record_type.FIELDS,
                                     record_type.TYPES,
                                     open_time=STUDY_START)

    whole_handle, whole = writer("ssl.log", SSLRecord, "ssl")
    x509_handle, x509 = writer("x509.log", X509Record, "x509")
    seen = set()
    for shard in range(GENERATION_SHARDS):
        shard_handle, shard_writer = writer(f"ssl-{shard:02d}.log",
                                            SSLRecord, "ssl")
        for spec, plan in zip(context.specs, plans):
            for record in reference_cell(generator, spec, plan, shard):
                row = ssl_record_from_connection(record).to_row()
                shard_writer.write_row(row)
                whole.write_row(row)
                for certificate in record.chain:
                    if certificate.fingerprint not in seen:
                        seen.add(certificate.fingerprint)
                        x509.write_row(x509_record_from_certificate(
                            certificate, record.timestamp).to_row())
        shard_writer.close()
        shard_handle.close()
    for handle, log_writer in ((whole_handle, whole), (x509_handle, x509)):
        log_writer.close()
        handle.close()
    return str(directory)


@pytest.fixture(scope="module", params=SEEDS, ids=str)
def runs(request, tmp_path_factory):
    seed = request.param
    patcher = pytest.MonkeyPatch()
    try:
        patcher.setattr(generate_module, "_CONTEXT_CACHE", {})
        patcher.setattr(HandshakeSimulator, "_next_uid", choice_uid)
        patcher.setattr(BrowserPolicy, "validate", unmemoized_validate)
        patcher.setattr(WorkloadGenerator, "_server_ip", redrawn_server_ip)
        # Inline (jobs=1): spawned pool workers would not see the patches.
        plain = write_out(seed, tmp_path_factory.mktemp("plain"), jobs=1)
    finally:
        patcher.undo()
    patcher = pytest.MonkeyPatch()
    try:
        patcher.setattr(generate_module, "_CONTEXT_CACHE", {})
        patcher.setattr(os, "cpu_count", lambda: 2)
        shipped = write_out(seed, tmp_path_factory.mktemp("shipped"), jobs=2)
        inline = tmp_path_factory.mktemp("inline") / "shards"
        generate_dataset(str(inline), seed=seed, scale=resolve_scale("small"),
                         jobs=1)
        shipped["inline_shards"] = str(inline)
    finally:
        patcher.undo()
    shipped["reference"] = write_reference(
        seed, tmp_path_factory.mktemp("reference") / "logs")
    return plain, shipped


class TestHotPathByteIdentity:
    def test_serial_logs_identical(self, runs):
        plain, shipped = runs
        assert shipped["ssl"] == plain["ssl"]
        assert shipped["x509"] == plain["x509"]

    def test_pool_shards_identical_to_plain_path(self, runs):
        plain, shipped = runs
        assert shipped["jobs"] == 2
        names = sorted(os.listdir(plain["shards"]))
        assert names == [f"ssl-{s:02d}.log" for s in range(GENERATION_SHARDS)] \
            + ["x509.log"]
        assert sorted(os.listdir(shipped["shards"])) == names
        for name in names:
            assert read_bytes(os.path.join(shipped["shards"], name)) == \
                read_bytes(os.path.join(plain["shards"], name)), name

    def test_broadcast_x509_matches_plain_serial_tap(self, runs):
        plain, shipped = runs
        assert read_bytes(os.path.join(shipped["shards"], "x509.log")) == \
            plain["x509"]


class TestPreKernelReference:
    """Every output equals the test-local pre-kernel loop's bytes."""

    @pytest.mark.parametrize("shards_key", ["inline_shards", "shards"],
                             ids=["jobs1", "jobs2"])
    def test_engine_shards_match_reference(self, runs, shards_key):
        _, shipped = runs
        reference = shipped["reference"]
        for shard in range(GENERATION_SHARDS):
            name = f"ssl-{shard:02d}.log"
            assert read_bytes(os.path.join(shipped[shards_key], name)) == \
                read_bytes(os.path.join(reference, name)), name
        assert read_bytes(os.path.join(shipped[shards_key], "x509.log")) == \
            read_bytes(os.path.join(reference, "x509.log"))

    def test_serial_write_out_matches_reference(self, runs):
        _, shipped = runs
        reference = shipped["reference"]
        assert shipped["ssl"] == read_bytes(os.path.join(reference,
                                                         "ssl.log"))
        assert shipped["x509"] == read_bytes(os.path.join(reference,
                                                          "x509.log"))


class TestGenerationContextSpan:
    """Each worker's one-off setup is its own ``generation_context`` span."""

    @pytest.fixture(autouse=True)
    def fresh_sink(self):
        get_sink().reset()
        yield
        get_sink().reset()

    @staticmethod
    def context_spans():
        return [(telemetry.pid, span.path)
                for telemetry, span in get_sink().spans()
                if span.name == "generation_context"]

    def test_each_pool_worker_emits_exactly_one(self, tmp_path, monkeypatch):
        monkeypatch.setenv(NO_CPU_CLAMP_VAR, "1")
        result = generate_dataset(str(tmp_path / "pool"), seed="ctx-span",
                                  scale=resolve_scale("small"), jobs=2)
        assert result.jobs == 2
        worker_pids = {telemetry.pid for telemetry in get_sink().records
                       if telemetry.kind == "generate"}
        spans = self.context_spans()
        assert spans
        assert sorted(pid for pid, _ in spans) == sorted(worker_pids)
        assert all(path.endswith("generate_shard.generation_context")
                   for _, path in spans)

    def test_cache_hit_emits_none(self, tmp_path, monkeypatch):
        monkeypatch.setattr(generate_module, "_CONTEXT_CACHE", {})
        for attempt in ("miss", "hit"):
            get_sink().reset()
            get_tracer().reset()
            generate_dataset(str(tmp_path / attempt), seed="ctx-span",
                             scale=resolve_scale("small"), jobs=1)
            expected = 1 if attempt == "miss" else 0
            assert len(self.context_spans()) == expected, attempt
            # Inline, the span belongs to the shard's capture, never to
            # the driver's own timeline.
            assert "generation_context" not in \
                {record.name for record in get_tracer().finished}
