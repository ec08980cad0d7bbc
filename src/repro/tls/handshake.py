"""Simulated TLS handshakes between configured servers and policy-bearing
clients, producing :class:`~repro.tls.connection.ConnectionRecord` streams
for the monitoring tap.

The simulation is deliberately shallow on crypto (no real key exchange) and
deep on the observable surface: delivered chain order, SNI presence,
negotiated version, and whether the client's validation policy accepts the
chain — because those are the fields the paper's entire analysis runs on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, Optional, Sequence

from ..x509.certificate import Certificate
from .connection import ConnectionRecord, Endpoint
from .messages import Alert, AlertDescription, CertificateMessage, ClientHello, TLSVersion
from .policy import PermissivePolicy, ValidationPolicy, ValidationStatus

__all__ = ["TLSServer", "TLSClient", "HandshakeOutcome", "HandshakeSimulator"]


@dataclass
class TLSServer:
    """A TLS endpoint serving one configured certificate chain per port."""

    ip: str
    port: int = 443
    chain: tuple[Certificate, ...] = field(default=())
    #: Highest protocol version the server negotiates.
    max_version: TLSVersion = TLSVersion.TLS12
    #: Hostname(s) this server is known by, for scanning.
    hostnames: tuple[str, ...] = ()

    def certificate_message(self) -> CertificateMessage:
        return CertificateMessage(self.chain)

    @property
    def endpoint(self) -> Endpoint:
        return Endpoint(self.ip, self.port)


@dataclass
class TLSClient:
    """A TLS client with a validation policy (browser, strict, permissive)."""

    ip: str
    policy: ValidationPolicy = field(default_factory=PermissivePolicy)
    version: TLSVersion = TLSVersion.TLS12
    sends_sni: bool = True


@dataclass(frozen=True, slots=True)
class HandshakeOutcome:
    record: ConnectionRecord
    alert: Optional[Alert]
    validation_status: ValidationStatus


_ALERT_FOR_STATUS = {
    ValidationStatus.EXPIRED: AlertDescription.CERTIFICATE_EXPIRED,
    ValidationStatus.UNKNOWN_CA: AlertDescription.UNKNOWN_CA,
    ValidationStatus.SELF_SIGNED: AlertDescription.UNKNOWN_CA,
    ValidationStatus.BROKEN_CHAIN: AlertDescription.BAD_CERTIFICATE,
    ValidationStatus.EMPTY_CHAIN: AlertDescription.HANDSHAKE_FAILURE,
}


#: Zeek-style UID token symbols.  62 of them, so ``Random.choice`` draws
#: ``getrandbits(6)`` and rejects the values 62 and 63.
_UID_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_UID_LENGTH = 17
#: Maps the top byte of a 32-bit Mersenne Twister word to the symbol
#: ``choice`` picks from its top 6 bits (``byte >> 2``); bytes >= 248 are
#: the words ``choice`` rejects and are deleted by ``bytes.translate``.
_UID_TABLE = bytes(ord(_UID_ALPHABET[b >> 2]) if b < 248 else 0
                   for b in range(256))
_UID_REJECTED = bytes(range(248, 256))


class HandshakeSimulator:
    """Drives client↔server handshakes and emits monitor-view records."""

    def __init__(self, seed: int | str = 0):
        self._rng = random.Random(f"handshake:{seed}")
        self._uid_counter = 0

    def _next_uid(self) -> str:
        """Zeek-style connection UID (C + base62-ish random token).

        Draws the exact sequence of 17 ``choice(_UID_ALPHABET)`` calls in
        bulk: ``getrandbits(544)`` is 17 Twister words, first word least
        significant, and byte ``4i+3`` is word ``i``'s top byte.  Words
        ``choice`` would reject are dropped and redrawn one at a time, so
        the generator ends in the same state (``docs/PERFORMANCE.md``,
        "Hot-path memos").
        """
        self._uid_counter += 1
        rng = self._rng
        top_bytes = rng.getrandbits(32 * _UID_LENGTH).to_bytes(
            4 * _UID_LENGTH, "little")[3::4]
        token = top_bytes.translate(_UID_TABLE, _UID_REJECTED).decode("ascii")
        while len(token) < _UID_LENGTH:
            bits = rng.getrandbits(6)
            if bits < len(_UID_ALPHABET):
                token += _UID_ALPHABET[bits]
        return "C" + token

    def connect(self, client: TLSClient, server: TLSServer, *,
                sni: Optional[str] = None,
                when: datetime,
                client_port: Optional[int] = None) -> HandshakeOutcome:
        """Run one handshake; returns the monitor-view outcome."""
        hello = ClientHello(
            version=_negotiate(client.version, server.max_version),
            sni=sni if client.sends_sni else None,
        )
        message = server.certificate_message()
        result = client.policy.validate(message.chain, at=when)
        established = result.ok
        alert: Optional[Alert] = None
        if not established:
            alert = Alert(True, _ALERT_FOR_STATUS.get(
                result.status, AlertDescription.HANDSHAKE_FAILURE))
        visible_chain: tuple[Certificate, ...] = message.chain
        if not hello.version.certificates_visible_to_monitor:
            visible_chain = ()
        record = ConnectionRecord(
            uid=self._next_uid(),
            timestamp=when,
            client=Endpoint(client.ip, client_port or self._rng.randint(32768, 60999)),
            server=server.endpoint,
            version=hello.version,
            sni=hello.sni,
            established=established,
            chain=visible_chain,
            validation_detail=result.detail,
        )
        return HandshakeOutcome(record, alert, result.status)


def _negotiate(client_version: TLSVersion, server_version: TLSVersion) -> TLSVersion:
    order = [TLSVersion.TLS10, TLSVersion.TLS11, TLSVersion.TLS12, TLSVersion.TLS13]
    return min(client_version, server_version, key=order.index)
