"""Validation policy divergence: browser vs strict vs permissive (§5, §6.1)."""

from __future__ import annotations

from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest

from repro.tls.policy import (
    BrowserPolicy,
    PermissivePolicy,
    StrictPresentedChainPolicy,
    ValidationStatus,
    signature_verifies,
)
from repro.x509 import (
    CertificateFactory,
    CertificateRevocationList,
    RevocationChecker,
    ValidityPeriod,
    name,
)


@pytest.fixture()
def when():
    return datetime(2021, 2, 1, tzinfo=timezone.utc)


@pytest.fixture()
def le_chain(pki):
    factory = CertificateFactory(seed=11)
    r3 = pki.ca("lets_encrypt").intermediates["R3"]
    leaf = factory.leaf(r3, name("shop.example"), dns_names=["shop.example"])
    return (leaf, r3.certificate)


@pytest.fixture()
def stray_cert():
    return CertificateFactory(seed=12).self_signed(name("tester", o="HP Inc"))


class TestPermissive:
    def test_accepts_anything(self, stray_cert, when):
        result = PermissivePolicy().validate([stray_cert], at=when)
        assert result.ok

    def test_rejects_empty(self, when):
        assert PermissivePolicy().validate([], at=when).status is \
            ValidationStatus.EMPTY_CHAIN


class TestBrowserPolicy:
    def test_valid_public_chain(self, registry, le_chain, when):
        result = BrowserPolicy(registry).validate(le_chain, at=when)
        assert result.ok
        # Path completed with the locally-known anchor.
        assert len(result.path) == 3

    def test_unnecessary_cert_is_ignored(self, registry, le_chain,
                                         stray_cert, when):
        chain = (*le_chain, stray_cert)
        result = BrowserPolicy(registry).validate(chain, at=when)
        assert result.ok  # Chrome's behaviour in §5

    def test_unknown_ca_fails(self, registry, when):
        factory = CertificateFactory(seed=13)
        private = factory.root(name("Private Root"))
        leaf = factory.leaf(private, name("internal.example"))
        result = BrowserPolicy(registry).validate(
            [leaf, private.certificate], at=when)
        # The walk ends at the untrusted self-signed private root.
        assert not result.ok
        assert result.status in (ValidationStatus.UNKNOWN_CA,
                                 ValidationStatus.SELF_SIGNED)

    def test_extra_anchor_trusts_private_chain(self, registry, when):
        factory = CertificateFactory(seed=13)
        private = factory.root(name("Private Root"))
        leaf = factory.leaf(private, name("internal.example"))
        policy = BrowserPolicy(registry, extra_anchors=[private.certificate])
        assert policy.validate([leaf, private.certificate], at=when).ok

    def test_self_signed_rejected(self, registry, stray_cert, when):
        result = BrowserPolicy(registry).validate([stray_cert], at=when)
        assert result.status is ValidationStatus.SELF_SIGNED

    def test_expired_leaf_rejected(self, registry, pki, when):
        factory = CertificateFactory(seed=14)
        r3 = pki.ca("lets_encrypt").intermediates["R3"]
        from datetime import timedelta
        old_leaf = factory.leaf(r3, name("old.example"),
                                not_before=when - timedelta(days=400),
                                lifetime_days=90)
        result = BrowserPolicy(registry).validate(
            [old_leaf, r3.certificate], at=when)
        assert result.status is ValidationStatus.EXPIRED

    def test_missing_intermediate_fails(self, registry, le_chain, when):
        # Leaf alone: R3 is not an anchor, so the browser cannot complete.
        result = BrowserPolicy(registry).validate(le_chain[:1], at=when)
        assert result.status is ValidationStatus.UNKNOWN_CA

    def test_empty_chain(self, registry, when):
        assert BrowserPolicy(registry).validate([], at=when).status is \
            ValidationStatus.EMPTY_CHAIN


class TestStrictPolicy:
    def test_valid_public_chain(self, registry, le_chain, when):
        assert StrictPresentedChainPolicy(registry).validate(
            le_chain, at=when).ok

    def test_unnecessary_cert_breaks_chain(self, registry, le_chain,
                                           stray_cert, when):
        """The §5 divergence: same chain, Chrome OK, strict validation fails."""
        chain = (*le_chain, stray_cert)
        browser = BrowserPolicy(registry).validate(chain, at=when)
        strict = StrictPresentedChainPolicy(registry).validate(chain, at=when)
        assert browser.ok
        assert strict.status is ValidationStatus.BROKEN_CHAIN

    def test_unanchored_tail_fails(self, registry, when):
        factory = CertificateFactory(seed=15)
        private = factory.root(name("P Root"))
        inter = factory.intermediate(private, name("P Inter"))
        leaf = factory.leaf(inter, name("x"))
        result = StrictPresentedChainPolicy(registry).validate(
            [leaf, inter.certificate, private.certificate], at=when)
        assert result.status is ValidationStatus.UNKNOWN_CA

    def test_single_self_signed(self, registry, stray_cert, when):
        result = StrictPresentedChainPolicy(registry).validate(
            [stray_cert], at=when)
        assert result.status is ValidationStatus.SELF_SIGNED

    def test_any_expired_member_fails(self, registry, pki, when):
        factory = CertificateFactory(seed=16)
        from datetime import timedelta
        r3 = pki.ca("lets_encrypt").intermediates["R3"]
        leaf = factory.leaf(r3, name("y.example"), not_before=when)
        expired_extra = factory.self_signed(
            name("stale"), not_before=when - timedelta(days=4000),
            lifetime_days=30)
        result = StrictPresentedChainPolicy(registry).validate(
            [leaf, r3.certificate, expired_extra], at=when)
        assert result.status is ValidationStatus.EXPIRED


class TestSignatureVerifies:
    def test_true_for_real_parent(self, pki):
        factory = CertificateFactory(seed=17)
        r3 = pki.ca("lets_encrypt").intermediates["R3"]
        leaf = factory.leaf(r3, name("z.example"))
        assert signature_verifies(leaf, r3.certificate)

    def test_false_for_name_collision_with_wrong_key(self, pki):
        """An impostor CA with the same DN but a different key must fail."""
        factory = CertificateFactory(seed=18)
        r3 = pki.ca("lets_encrypt").intermediates["R3"]
        leaf = factory.leaf(r3, name("w.example"))
        impostor_root = factory.root(name("ISRG Root X1",
                                          o="Internet Security Research Group",
                                          c="US"))
        impostor_r3 = factory.intermediate(impostor_root,
                                           name("R3", o="Let's Encrypt", c="US"))
        assert impostor_r3.certificate.issued(leaf)  # names chain...
        assert not signature_verifies(leaf, impostor_r3.certificate)  # ...keys don't

    def test_cross_signed_twin_verifies(self, pki):
        """Cross-signed twins carry the same subject key: a leaf signed by
        the original verifies under the twin too."""
        factory = CertificateFactory(seed=19)
        r3 = pki.ca("lets_encrypt").intermediates["R3"]
        twin = pki.cross_signed["R3-cross"]
        leaf = factory.leaf(r3, name("v.example"))
        assert signature_verifies(leaf, twin.certificate)

    def test_name_fallback_without_key_ids(self):
        factory = CertificateFactory(seed=20)
        a = factory.self_signed(name("bare-a"))
        b = factory.self_signed(name("bare-b"))
        assert not signature_verifies(a, b)
        assert signature_verifies(a, a)


class TestValidationMemo:
    """A memoizing policy answers exactly like a fresh policy per call."""

    @pytest.fixture()
    def private(self):
        """A private hierarchy whose intermediate expires before the leaf,
        plus a longer-lived twin (same subject and key) of that
        intermediate."""
        factory = CertificateFactory(seed=21)
        start = datetime(2020, 6, 1, tzinfo=timezone.utc)
        root = factory.root(name("Memo Private Root"))
        short = factory.intermediate(root, name("Memo Issuing CA"),
                                     not_before=start, lifetime_years=1)
        twin = replace(short.certificate, serial=factory.serial(),
                       validity=ValidityPeriod(
                           start, start + timedelta(days=365 * 5)))
        leaf = factory.leaf(short, name("memo.example"),
                            not_before=start + timedelta(days=200),
                            lifetime_days=398)
        return root.certificate, short.certificate, twin, leaf

    @staticmethod
    def _moments(chain):
        """Instants before, at the edges of, inside and after every
        member's validity period (so before, inside and after the
        chain's joint window)."""
        second = timedelta(seconds=1)
        moments = set()
        for certificate in chain:
            begin = certificate.validity.not_before
            end = certificate.validity.not_after
            moments.update((begin - second, begin, begin + (end - begin) / 2,
                            end, end + second))
        return sorted(moments)

    def _assert_exact(self, make_policy, chain):
        memoizing = make_policy()
        moments = self._moments(chain)
        for at in moments + moments[::-1]:
            expected = make_policy().validate(chain, at=at)
            assert memoizing.validate(chain, at=at) == expected, at

    def _chains(self, le_chain, private):
        root, short, twin, leaf = private
        return [le_chain, (leaf, short, root), (leaf, short, twin, root),
                (leaf, twin, short), (leaf,), (root,)]

    def test_public_policy(self, registry, le_chain, private):
        for chain in self._chains(le_chain, private):
            self._assert_exact(lambda: BrowserPolicy(registry), chain)

    def test_restricted_store_policy(self, registry, le_chain, private):
        nss = registry.restricted_to(["Mozilla"])
        for chain in self._chains(le_chain, private):
            self._assert_exact(lambda: BrowserPolicy(nss), chain)

    def test_trusting_policy_with_extra_anchors(self, registry, le_chain,
                                                private):
        root = private[0]
        for chain in self._chains(le_chain, private):
            self._assert_exact(
                lambda: BrowserPolicy(registry, extra_anchors=[root]), chain)

    def test_validity_period_unchecked(self, registry, le_chain, private):
        root = private[0]
        for chain in self._chains(le_chain, private):
            self._assert_exact(
                lambda: BrowserPolicy(registry, extra_anchors=[root],
                                      check_validity_period=False), chain)

    def test_interleaved_and_mutated_chains(self, registry, le_chain,
                                            private):
        # The last-seen tuple shortcut must not serve one chain's entry
        # to another, nor to a list whose contents changed in place.
        root, short, twin, leaf = private
        chains = self._chains(le_chain, private)
        make_policy = lambda: BrowserPolicy(registry, extra_anchors=[root])
        memoizing = make_policy()
        moments = sorted({at for chain in chains
                          for at in self._moments(chain)})
        mutable = [leaf, short, root]
        for at in moments:
            for chain in chains + chains[::-1]:
                for _ in range(2):
                    assert memoizing.validate(chain, at=at) == \
                        make_policy().validate(chain, at=at), (chain, at)
            for middle in (short, twin):
                mutable[1] = middle
                assert memoizing.validate(mutable, at=at) == \
                    make_policy().validate(tuple(mutable), at=at), at

    def test_expired_intermediate_skipped_outside_window(self, registry,
                                                         private):
        root, short, twin, leaf = private
        policy = BrowserPolicy(registry, extra_anchors=[root])
        inside = short.validity.not_after - timedelta(days=1)
        after = short.validity.not_after + timedelta(days=1)
        assert policy.validate((leaf, short, twin, root), at=inside).path \
            == (leaf, short, root)
        # Past the short intermediate's expiry the walk must skip it
        # and build through the twin, not replay the memoized path.
        assert policy.validate((leaf, short, twin, root), at=after).path \
            == (leaf, twin, root)
        assert policy.validate((leaf, short, root), at=inside).ok
        assert policy.validate((leaf, short, root), at=after).status \
            is ValidationStatus.UNKNOWN_CA

    def test_repeat_inside_window_is_served_from_memo(self, registry,
                                                      le_chain, when):
        policy = BrowserPolicy(registry)
        first = policy.validate(le_chain, at=when)
        assert policy.validate(le_chain, at=when + timedelta(days=1)) \
            is first

    def test_revocation_checker_bypasses_memo(self, registry, pki, when):
        r3 = pki.ca("lets_encrypt").intermediates["R3"]
        leaf = CertificateFactory(seed=22).leaf(r3, name("memo-rev.example"))
        crl = CertificateRevocationList(
            issuer=r3.certificate.subject,
            this_update=when - timedelta(days=1),
            next_update=when + timedelta(days=7))
        policy = BrowserPolicy(registry, revocation=RevocationChecker([crl]))
        assert policy.validate((leaf, r3.certificate), at=when).ok
        crl.revoke(leaf)
        assert policy.validate((leaf, r3.certificate), at=when).status \
            is ValidationStatus.REVOKED
