"""Packed shard payloads: codec roundtrip, fold-vs-legacy equivalence,
and the driver-side direct merge."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.campus.dataset import cached_campus_dataset
from repro.core.chain import ChainUsage, aggregate_chains
from repro.core.packed import (
    ChainFold,
    fold_ssl_segment,
    materialize_chains,
    merge_shard_columns,
    pack_shard_payload,
    unpack_shard_payload,
)
from repro.parallel.worker import ShardTask, process_shard, \
    process_shard_columnar
from repro.zeek.format import read_zeek_log
from repro.zeek.records import SSLRecord, X509Record
from repro.zeek.tap import certificate_map, iter_joined


def _usage(**overrides) -> ChainUsage:
    usage = ChainUsage(
        connections=3, established=2,
        client_ips={"10.0.0.1", "10.0.0.2"},
        ports=Counter({443: 2, 8443: 1}),
        sni_present=2, snis={"example.com", "münchen.example"},
        first_seen=1453939200.0, last_seen=1453939300.5,
        server_ips={"192.0.2.1"})
    for name, value in overrides.items():
        setattr(usage, name, value)
    return usage


def _x509_columns(n: int) -> dict:
    return {
        "ts": [1453939200.0 + i for i in range(n)],
        "fingerprint": [f"fp{i:02d}" for i in range(n)],
        "certificate.version": [3] * n,
        "certificate.serial": [f"{i:04X}" for i in range(n)],
        "certificate.subject": [f"CN=leaf{i},O=Täst" for i in range(n)],
        "certificate.issuer": ["CN=issuer"] * n,
        "certificate.not_valid_before": [1400000000.0] * n,
        "certificate.not_valid_after": [None] * n,
        "certificate.key_alg": ["rsa"] * n,
        "certificate.sig_alg": [None] * n,
        "certificate.key_length": [2048 if i % 2 else None
                                   for i in range(n)],
        "san.dns": [(f"a{i}.example", "b.example") if i % 2 else None
                    for i in range(n)],
        "basic_constraints.ca": [True, False, None][:1] * n,
        "basic_constraints.path_len": [None] * n,
    }


class TestPayloadCodec:
    def test_roundtrip_preserves_every_field_and_order(self):
        keys = [("fp00", "fp01"), ("fp01",)]
        usages = [_usage(),
                  _usage(connections=1, established=0, client_ips=set(),
                         ports=Counter({443: 1}), sni_present=0,
                         snis=set(), server_ips=set(),
                         first_seen=None, last_seen=None)]
        payload = pack_shard_payload(
            chain_keys=keys, usages=usages,
            cert_fingerprints=["fp00", "fp01", "fp02"],
            x509_columns=_x509_columns(3))
        assert isinstance(payload, bytes) and payload.startswith(b"RPK2")
        columns = unpack_shard_payload(payload)
        assert columns.chain_keys == keys
        assert columns.usages == usages
        # Counter *insertion order* survives: the reduce's merged output
        # ordering depends on it.
        assert list(columns.usages[0].ports.items()) == [(443, 2), (8443, 1)]
        assert columns.cert_fingerprints == ["fp00", "fp01", "fp02"]
        assert columns.x509_columns == _x509_columns(3)

    def test_empty_shard_roundtrips(self):
        payload = pack_shard_payload(chain_keys=[], usages=[],
                                     cert_fingerprints=[],
                                     x509_columns=_x509_columns(0))
        columns = unpack_shard_payload(payload)
        assert columns.chain_keys == []
        assert columns.usages == []
        assert columns.cert_fingerprints == []
        assert all(col == [] for col in columns.x509_columns.values())

    def test_bad_magic_rejected(self):
        payload = pack_shard_payload(chain_keys=[], usages=[],
                                     cert_fingerprints=[],
                                     x509_columns=_x509_columns(0))
        with pytest.raises(ValueError):
            unpack_shard_payload(b"XXXX" + payload[4:])

    def test_truncated_payload_rejected(self):
        payload = pack_shard_payload(
            chain_keys=[("fp00",)], usages=[_usage()],
            cert_fingerprints=["fp00"], x509_columns=_x509_columns(1))
        with pytest.raises(ValueError):
            unpack_shard_payload(payload[:len(payload) // 2])

    def test_materialize_preserves_chain_insertion_order(self):
        keys = [("fp01",), ("fp00", "fp01")]
        usages = [_usage(), _usage(connections=9)]
        certificates = {"fp00": object(), "fp01": object()}
        chains = materialize_chains(keys, usages, certificates)
        assert list(chains) == keys
        assert chains[("fp00", "fp01")].certificates == (
            certificates["fp00"], certificates["fp01"])
        assert chains[("fp01",)].usage is usages[0]


@pytest.fixture(scope="module")
def shard(tmp_path_factory):
    dataset = cached_campus_dataset(seed="packed-equivalence",
                                    scale="small")
    base = tmp_path_factory.mktemp("packed")
    ssl_path, x509_path = dataset.write_zeek_logs(str(base))
    return ssl_path, x509_path


class TestFoldEquivalence:
    def test_columnar_shard_matches_legacy_aggregation(self, shard):
        ssl_path, x509_path = shard
        _, ssl_rows = read_zeek_log(ssl_path, compiled=False)
        _, x509_rows = read_zeek_log(x509_path, compiled=False)
        legacy = aggregate_chains(iter_joined(
            (SSLRecord.from_row(r) for r in ssl_rows),
            certificate_map(X509Record.from_row(r) for r in x509_rows)))

        aggregate = process_shard_columnar(ShardTask(
            index=0, ssl_path=ssl_path, x509_path=x509_path,
            columnar=True))
        columns = unpack_shard_payload(aggregate.payload)

        assert columns.chain_keys == list(legacy)
        assert columns.usages == [c.usage for c in legacy.values()]
        assert aggregate.aggregated == sum(
            c.usage.connections for c in legacy.values())

    def test_columnar_aggregate_counters_match_compiled_worker(self, shard):
        ssl_path, x509_path = shard
        task = ShardTask(index=0, ssl_path=ssl_path, x509_path=x509_path)
        compiled = process_shard(task)
        columnar = process_shard_columnar(ShardTask(
            index=0, ssl_path=ssl_path, x509_path=x509_path,
            columnar=True))
        for field_name in ("ssl_rows", "x509_rows", "joined",
                           "missing_certs", "aggregated", "skipped_empty",
                           "ssl_log_label", "x509_log_label"):
            assert getattr(columnar, field_name) \
                == getattr(compiled, field_name), field_name
        assert unpack_shard_payload(columnar.payload).chain_keys \
            == list(compiled.chains)

    def test_fold_resolves_keys_and_missing_against_known_fps(self):
        fold = ChainFold()
        fold_ssl_segment(
            fold, known_fps=frozenset({"fp-a", "fp-b"}),
            ts=[1.0, 2.0, 3.0],
            client_ip=["10.0.0.1", "10.0.0.2", None],
            server_ip=["192.0.2.1"] * 3,
            port=[443, 443, 8443],
            established=[True, False, True],
            sni_ids=[0, 0, 1], sni_values=["example.com", None],
            chain_ids=[0, 1, 0],
            chain_values=[("fp-a", "fp-ghost"), None])
        # Row 2 has no chain (None → empty key) and is skipped; the
        # ghost fingerprint counts as missing on each occurrence.
        assert fold.joined == 3
        assert fold.missing_certs == 2
        assert fold.aggregated == 2
        usage = fold.chains[("fp-a",)]
        assert usage.connections == 2
        assert usage.ports == Counter({443: 1, 8443: 1})
        # record() keeps None clients — exact legacy set semantics.
        assert usage.client_ips == {"10.0.0.1", None}


def _payload(keys, usages) -> bytes:
    return pack_shard_payload(chain_keys=keys, usages=usages,
                              cert_fingerprints=[],
                              x509_columns=_x509_columns(0))


def _usage_state(usage: ChainUsage) -> tuple:
    """Every observable field, Counter key order included."""
    return (usage.connections, usage.established, sorted(usage.client_ips),
            list(usage.ports.items()), usage.sni_present,
            sorted(usage.snis), usage.first_seen, usage.last_seen,
            sorted(usage.server_ips))


def _merge_both_ways(payloads):
    """(direct merge, materialize + ChainUsage.merge) over ``payloads``."""
    direct: dict = {}
    added = []
    for payload in payloads:
        added.extend(merge_shard_columns(direct,
                                         unpack_shard_payload(payload)))
    reference: dict = {}
    for payload in payloads:
        columns = unpack_shard_payload(payload)
        certificates = {fp: object() for key in columns.chain_keys
                        for fp in key}
        for key, chain in materialize_chains(
                columns.chain_keys, columns.usages, certificates).items():
            existing = reference.get(key)
            if existing is None:
                reference[key] = chain
            else:
                existing.usage.merge(chain.usage)
    return direct, added, reference


class TestDirectMerge:
    def test_matches_materialize_then_merge(self):
        first = _payload(
            [("fp-a",), ("fp-b", "fp-c")],
            [_usage(ports=Counter({443: 2, 8443: 1})),
             _usage(first_seen=None, last_seen=None)])
        # The later shard puts new ports *ahead of* existing ones: the
        # merged Counter must append them, as Counter.__iadd__ does.
        second = _payload(
            [("fp-d",), ("fp-a",), ("fp-b", "fp-c")],
            [_usage(),
             _usage(ports=Counter({993: 1, 25: 4, 443: 3}),
                    client_ips={"10.9.9.9"}, snis={"new.example"},
                    first_seen=1453939100.0, last_seen=1453939250.0),
             _usage(first_seen=1453939999.0, last_seen=None)])
        empty = _payload([], [])
        direct, added, reference = _merge_both_ways([first, empty, second])
        assert list(direct) == list(reference)
        assert added == list(reference)
        for key, chain in reference.items():
            assert _usage_state(direct[key]) == _usage_state(chain.usage)
        assert list(direct[("fp-a",)].ports) == [443, 8443, 993, 25]
        # None endpoints are skipped; present ones widen the window.
        assert direct[("fp-b", "fp-c")].first_seen == 1453939999.0
        assert direct[("fp-b", "fp-c")].last_seen == 1453939999.0
        assert direct[("fp-a",)].first_seen == 1453939100.0

    def test_randomized_shards_match_materialize_then_merge(self):
        rng = random.Random(14)
        keys = [tuple(f"fp{rng.randrange(12):02d}"
                      for _ in range(rng.randint(1, 3)))
                for _ in range(25)]
        payloads = []
        for _ in range(6):
            chosen = list(dict.fromkeys(rng.sample(keys, rng.randint(0, 10))))
            usages = []
            for _ in chosen:
                ports = Counter()
                for _ in range(rng.randint(1, 4)):
                    ports[rng.choice([None, 25, 443, 993, 8443])] += \
                        rng.randint(1, 3)
                times = [rng.choice([None, rng.uniform(0, 1e9)])
                         for _ in range(2)]
                usages.append(ChainUsage(
                    connections=rng.randint(1, 9),
                    established=rng.randint(0, 9),
                    client_ips={f"10.0.0.{rng.randrange(6)}"
                                for _ in range(rng.randint(0, 3))},
                    ports=ports, sni_present=rng.randint(0, 5),
                    snis={rng.choice(["a.example", "b.example"])
                          for _ in range(rng.randint(0, 2))},
                    first_seen=times[0], last_seen=times[1],
                    server_ips={f"192.0.2.{rng.randrange(4)}"}))
            payloads.append(_payload(chosen, usages))
        direct, added, reference = _merge_both_ways(payloads)
        assert added == list(reference) == list(direct)
        assert [_usage_state(u) for u in direct.values()] == \
            [_usage_state(c.usage) for c in reference.values()]

    def test_usages_are_built_lazily_and_equal_the_packed_ones(self):
        usages = [_usage(), _usage(ports=Counter({25: 1}), first_seen=None)]
        columns = unpack_shard_payload(_payload([("a",), ("b",)], usages))
        assert columns.usages == usages
        # Each access builds fresh accumulators: mutating one is local.
        columns.usages[0].connections += 1
        assert columns.usages == usages
