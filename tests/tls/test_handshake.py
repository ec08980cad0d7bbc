"""Handshake simulation and interception middleboxes."""

from __future__ import annotations

import random
from datetime import datetime, timezone

import pytest

from repro.tls import (
    BrowserPolicy,
    HandshakeSimulator,
    PermissivePolicy,
    StrictPresentedChainPolicy,
    TLSClient,
    TLSServer,
    TLSVersion,
    ValidationStatus,
    build_middlebox,
)
from repro.tls.handshake import _negotiate
from repro.x509 import CertificateFactory, name


@pytest.fixture()
def when():
    return datetime(2021, 3, 1, tzinfo=timezone.utc)


@pytest.fixture()
def public_server(pki):
    factory = CertificateFactory(seed=21)
    r3 = pki.ca("lets_encrypt").intermediates["R3"]
    leaf = factory.leaf(r3, name("www.campus.edu"), dns_names=["www.campus.edu"])
    return TLSServer("198.51.100.7", 443, (leaf, r3.certificate),
                     hostnames=("www.campus.edu",))


class TestHandshake:
    def test_established_with_browser_client(self, registry, public_server, when):
        sim = HandshakeSimulator(seed=1)
        client = TLSClient("10.1.2.3", policy=BrowserPolicy(registry))
        outcome = sim.connect(client, public_server, sni="www.campus.edu",
                              when=when)
        assert outcome.record.established
        assert outcome.alert is None
        assert outcome.record.sni == "www.campus.edu"
        assert len(outcome.record.chain) == 2

    def test_failed_validation_produces_alert(self, registry, when):
        factory = CertificateFactory(seed=22)
        server = TLSServer("203.0.113.9", 443,
                           (factory.self_signed(name("printer.local")),))
        sim = HandshakeSimulator(seed=1)
        client = TLSClient("10.0.0.1", policy=BrowserPolicy(registry))
        outcome = sim.connect(client, server, when=when)
        assert not outcome.record.established
        assert outcome.alert is not None and outcome.alert.fatal

    def test_tls13_hides_chain_from_monitor(self, registry, public_server, when):
        public_server.max_version = TLSVersion.TLS13
        sim = HandshakeSimulator(seed=1)
        client = TLSClient("10.0.0.1", policy=BrowserPolicy(registry),
                           version=TLSVersion.TLS13)
        outcome = sim.connect(client, public_server, sni="www.campus.edu",
                              when=when)
        assert outcome.record.established
        assert outcome.record.chain == ()  # §6.3 limitation reproduced

    def test_version_negotiation_downgrades(self, registry, public_server, when):
        sim = HandshakeSimulator(seed=1)
        client = TLSClient("10.0.0.1", policy=PermissivePolicy(),
                           version=TLSVersion.TLS13)
        outcome = sim.connect(client, public_server, when=when)
        assert outcome.record.version is TLSVersion.TLS12

    def test_client_without_sni(self, registry, public_server, when):
        sim = HandshakeSimulator(seed=1)
        client = TLSClient("10.0.0.1", policy=PermissivePolicy(),
                           sends_sni=False)
        outcome = sim.connect(client, public_server, sni="www.campus.edu",
                              when=when)
        assert outcome.record.sni is None

    def test_uids_unique(self, registry, public_server, when):
        sim = HandshakeSimulator(seed=1)
        client = TLSClient("10.0.0.1", policy=PermissivePolicy())
        uids = {sim.connect(client, public_server, when=when).record.uid
                for _ in range(50)}
        assert len(uids) == 50


UID_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


class TestUidDraws:
    """Bulk UID draws replay the per-character ``choice`` sequence."""

    @staticmethod
    def _reference_uid(rng: random.Random) -> str:
        return "C" + "".join(rng.choice(UID_ALPHABET) for _ in range(17))

    @pytest.mark.parametrize("seeds", [range(0, 100), range(100, 200),
                                       [f"workload-hs:0:{s:02d}:x"
                                        for s in range(20)]])
    def test_matches_stdlib_choice_and_rng_state(self, seeds):
        for seed in seeds:
            sim = HandshakeSimulator(seed=seed)
            twin = random.Random(f"handshake:{seed}")
            for _ in range(500):
                assert sim._next_uid() == self._reference_uid(twin), seed
                # Same generator state, so the draws that follow (the
                # client port) are unchanged too.
                assert sim._rng.getstate() == twin.getstate(), seed

    def test_rejected_words_are_redrawn(self):
        # At 2 of 64 words rejected per draw, a UID with at least one
        # redraw turns up within the first few hundred of any seed.
        sim = HandshakeSimulator(seed=0)
        twin = random.Random("handshake:0")
        redraws = 0
        for _ in range(500):
            before = twin.getstate()
            expected = self._reference_uid(twin)
            probe = random.Random()
            probe.setstate(before)
            probe.getrandbits(32 * 17)
            redraws += probe.getstate() != twin.getstate()
            assert sim._next_uid() == expected
        assert redraws > 0


class TestHandshakeStep:
    """``handshake`` is the one place the post-hello draw order lives."""

    def test_validates_then_draws_uid_then_port(self, public_server, when):
        sim = HandshakeSimulator(seed=5)
        twin = random.Random("handshake:5")
        result, uid, port = sim.handshake(PermissivePolicy(),
                                          public_server.chain, when=when)
        assert result.ok
        assert uid == TestUidDraws._reference_uid(twin)
        assert port == twin.randint(32768, 60999)
        assert sim._rng.getstate() == twin.getstate()

    def test_given_port_is_not_drawn(self, public_server, when):
        sim = HandshakeSimulator(seed=5)
        twin = random.Random("handshake:5")
        _, _, port = sim.handshake(PermissivePolicy(), public_server.chain,
                                   when=when, client_port=40000)
        TestUidDraws._reference_uid(twin)
        assert port == 40000
        assert sim._rng.getstate() == twin.getstate()

    def test_connect_record_carries_the_handshake_draws(self, registry,
                                                         public_server,
                                                         when):
        policy = BrowserPolicy(registry)
        result, uid, port = HandshakeSimulator(seed=6).handshake(
            policy, public_server.chain, when=when)
        record = HandshakeSimulator(seed=6).connect(
            TLSClient("10.0.0.1", policy=policy), public_server,
            when=when).record
        assert (record.uid, record.client.port) == (uid, port)
        assert record.established is result.ok
        assert record.validation_detail == result.detail

    @pytest.mark.parametrize("client", list(TLSVersion))
    @pytest.mark.parametrize("server", list(TLSVersion))
    def test_negotiates_the_lower_version(self, client, server):
        order = [TLSVersion.TLS10, TLSVersion.TLS11, TLSVersion.TLS12,
                 TLSVersion.TLS13]
        assert _negotiate(client, server) is min(client, server,
                                                 key=order.index)


class TestMiddlebox:
    def test_substitute_chain_shape(self):
        mb = build_middlebox("Fortinet", "Security & Network", seed=9)
        chain = mb.substitute_chain("mail.example.com")
        assert len(chain) == 3
        leaf, inter, root = chain
        assert leaf.subject.common_name == "mail.example.com"
        assert inter.issued(leaf)
        assert root.issued(inter)
        assert root.is_self_signed

    def test_chain_cached_per_host(self):
        mb = build_middlebox("Zscaler", "Security & Network", seed=9)
        a = mb.substitute_chain("a.example")
        b = mb.substitute_chain("a.example")
        assert a is b

    def test_single_self_signed_variant(self):
        mb = build_middlebox("TinyProxy", "Other", seed=9,
                             single_self_signed=True)
        chain = mb.substitute_chain("x.example")
        assert len(chain) == 1
        assert chain[0].is_self_signed

    def test_client_with_appliance_root_validates(self, registry, when):
        mb = build_middlebox("McAfee", "Security & Network", seed=9)
        chain = mb.substitute_chain("portal.example.com")
        trusted = BrowserPolicy(registry,
                                extra_anchors=[mb.root.certificate])
        untrusted = StrictPresentedChainPolicy(registry)
        assert trusted.validate(chain, at=when).ok
        assert not untrusted.validate(chain, at=when).ok

    def test_chain_depth_two(self):
        mb = build_middlebox("Bluecoat", "Security & Network", seed=9,
                             chain_depth=2)
        chain = mb.substitute_chain("y.example")
        assert len(chain) == 2
        assert chain[1].is_self_signed

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            build_middlebox("X", "Not A Category", seed=1)

    def test_intercept_discards_original(self, public_server):
        mb = build_middlebox("FireEye", "Security & Network", seed=9)
        presented = mb.intercept(public_server.chain, "www.campus.edu")
        original_fps = {c.fingerprint for c in public_server.chain}
        assert all(c.fingerprint not in original_fps for c in presented)
