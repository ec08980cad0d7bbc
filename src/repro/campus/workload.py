"""12-month connection workload generation.

Turns chain specs into a stream of simulated handshakes observed at the
campus border: per-spec connection volumes, NAT'd client pools sized to the
paper's per-category client-IP counts, per-connection client validation
policies, SNI behaviour, Table 4 port models, and a TLS 1.3 slice whose
certificates the monitor cannot see.

The study window is partitioned into :data:`GENERATION_SHARDS` fixed
intervals, independent of how many worker processes generate them.  Each
(interval, spec) cell draws from its own deterministically-derived RNG
stream, so any process can generate any cell in isolation and the
shard-major concatenation of cells is byte-identical however the work is
distributed (see ``docs/PERFORMANCE.md``, "Generation stage").
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..tls.connection import ConnectionRecord, Endpoint
from ..tls.handshake import HandshakeSimulator
from ..tls.messages import TLSVersion
from ..tls.policy import (
    BrowserPolicy,
    PermissivePolicy,
    StrictPresentedChainPolicy,
    ValidationPolicy,
    ValidationResult,
)
from ..truststores.registry import PublicDBRegistry
from .profiles import PAPER, PORT_MODELS, ScaleConfig
from .spec import ChainSpec

__all__ = ["CellDraw", "ClientPools", "SpecPlan", "WorkloadGenerator",
           "GENERATION_SHARDS", "STUDY_START", "STUDY_DAYS", "shard_window"]

STUDY_START = datetime(2020, 9, 1, tzinfo=timezone.utc)
STUDY_DAYS = 365

#: Fixed number of study-window intervals the workload is generated in.
#: A month-like granularity: fine enough that a worker pool up to 12 wide
#: stays busy, coarse enough that per-cell RNG/simulator setup amortises.
#: Deliberately *not* derived from ``--jobs`` — the interval layout (and
#: therefore every derived RNG stream and the output bytes) must be
#: identical at any worker count.
GENERATION_SHARDS = 12

#: One connection of a cell, as :meth:`WorkloadGenerator.draw_cell` yields
#: it: ``(visible, client_ip, sends_sni, when, result, uid, client_port)``.
#: ``visible`` is true for the monitor-visible TLS 1.2 slice and false for
#: TLS 1.3, whose certificates the monitor cannot see.
CellDraw = Tuple[bool, str, bool, datetime, ValidationResult, str, int]


def shard_window(shard: int, shards: int = GENERATION_SHARDS
                 ) -> Tuple[float, float]:
    """(start_offset_seconds, span_seconds) of one interval of the window."""
    span = STUDY_DAYS * 86400 / shards
    return shard * span, span


class ClientPools:
    """NAT'd campus client IPs partitioned by traffic population.

    Pool sizes follow the paper's client-IP counts (231,228 non-public /
    11,933 hybrid / 19,149 interception split per Table 1 / 761 DGA),
    scaled to ``scale.client_pool``.
    """

    def __init__(self, seed: int | str, scale: ScaleConfig):
        rng = random.Random(f"clients:{seed}")
        reference_total = PAPER.nonpub_client_ips + PAPER.hybrid_client_ips \
            + PAPER.interception_client_ips
        factor = scale.client_pool / reference_total
        self._pools: Dict[str, List[str]] = {}

        def make_pool(pool_name: str, reference: int, minimum: int = 4) -> None:
            size = max(minimum, round(reference * factor))
            self._pools[pool_name] = [self._ip(rng) for _ in range(size)]

        make_pool("nonpub", PAPER.nonpub_client_ips)
        make_pool("hybrid", PAPER.hybrid_client_ips)
        make_pool("general", round(reference_total * 0.8))
        make_pool("dga", PAPER.dga_client_ips)
        for category, _count, _pct, ips in PAPER.interception_issuer_categories:
            make_pool(f"intercept:{category}", ips)

    @staticmethod
    def _ip(rng: random.Random) -> str:
        return (f"10.{rng.randint(16, 31)}."
                f"{rng.randint(0, 255)}.{rng.randint(1, 254)}")

    def pool(self, pool_name: str) -> List[str]:
        return self._pools.get(pool_name) or self._pools["general"]

    def sizes(self) -> Dict[str, int]:
        return {pool_name: len(ips) for pool_name, ips in self._pools.items()}


@dataclass(frozen=True, slots=True)
class SpecPlan:
    """The shard-independent draws for one spec, made once up front.

    Everything that must be identical no matter which worker generates
    which interval lives here: the jittered connection volume, the port,
    the client subset, and each connection's interval assignment.  All of
    it comes from the spec's own ``plan`` RNG stream, derived from the
    workload seed plus a content digest of the spec — never from a shared
    generator-instance stream — so any process recomputes the identical
    plan from just (seed, spec).
    """

    plan_id: str
    n_visible: int
    n_tls13: int
    port: int
    clients: Tuple[str, ...]
    #: Interval index of connection ``i``; indices ``< n_visible`` are the
    #: monitor-visible TLS 1.2 connections, the rest the TLS 1.3 slice.
    shard_of: Tuple[int, ...]
    #: Intervals containing at least one monitor-visible connection —
    #: precomputed for the x509 first-appearance ownership scan.
    visible_shards: frozenset

    @property
    def total(self) -> int:
        return self.n_visible + self.n_tls13


class WorkloadGenerator:
    """Drives handshakes for every spec and yields monitor-view records.

    Generation is cell-structured: :meth:`draw_cell` simulates the
    connections of one (interval, spec) pair from that cell's private RNG
    stream and handshake simulator, and :meth:`generate_cell` turns its
    draws into records (the parallel engine's shard writers render rows
    from the draws directly).  :meth:`generate` walks cells
    shard-major (interval 0 for every spec, then interval 1, ...), which
    is exactly the concatenation order of the parallel engine's per-shard
    log files — so serial output and merged parallel output are
    byte-identical by construction.
    """

    def __init__(self, registry: PublicDBRegistry, *, seed: int | str,
                 scale: ScaleConfig, shards: int = GENERATION_SHARDS):
        self.registry = registry
        self.scale = scale
        self.seed = seed
        self.shards = shards
        self.pools = ClientPools(seed, scale)
        self._policies: Dict[str, ValidationPolicy] = {
            "browser": BrowserPolicy(registry),
            "browser_nss": BrowserPolicy(registry.restricted_to(["Mozilla"])),
            "strict": StrictPresentedChainPolicy(registry),
            "permissive": PermissivePolicy(),
        }
        self._trusting_cache: Dict[tuple, BrowserPolicy] = {}
        self._server_ips: Dict[Optional[str], str] = {}

    # -- policy selection -----------------------------------------------------

    def _policy_for(self, kind: str, spec: ChainSpec) -> ValidationPolicy:
        if kind != "trusting":
            return self._policies[kind]
        cache_key = tuple(a.fingerprint for a in spec.extra_anchors)
        policy = self._trusting_cache.get(cache_key)
        if policy is None:
            policy = BrowserPolicy(self.registry,
                                   extra_anchors=list(spec.extra_anchors))
            self._trusting_cache[cache_key] = policy
        return policy

    @staticmethod
    def _draw(rng: random.Random, weighted: Sequence[tuple[object, float]]):
        roll = rng.random()
        acc = 0.0
        for value, weight in weighted:
            acc += weight
            if roll < acc:
                return value
        return weighted[-1][0]

    # -- per-spec planning ------------------------------------------------------

    @staticmethod
    def _plan_id(spec: ChainSpec) -> str:
        """Content digest naming the spec's RNG streams.

        Derived from what the spec *is* rather than its position in the
        spec list, so a worker holding only (seed, spec) derives the same
        streams as the serial path.  BLAKE2b, never ``hash()`` — stable
        across interpreter runs.
        """
        digest = hashlib.blake2b(digest_size=16)
        for fingerprint in spec.key:
            digest.update(fingerprint.encode("ascii"))
            digest.update(b"\x00")
        for token in (spec.hostname or "", str(spec.server_id),
                      spec.category_truth, spec.port_model, spec.client_pool,
                      str(spec.mean_connections), str(spec.sni_rate),
                      str(spec.tls13_rate)):
            digest.update(token.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()

    def plan_for(self, spec: ChainSpec) -> SpecPlan:
        """Compute the spec's shard-independent plan (volume, port,
        client subset, per-connection interval assignment)."""
        plan_id = self._plan_id(spec)
        rng = random.Random(f"workload:{self.seed}:plan:{plan_id}")
        if spec.labels.get("outlier"):
            n_visible = 1
        else:
            jitter = rng.uniform(0.6, 1.6)
            n_visible = max(self.scale.min_connections,
                            round(spec.mean_connections * jitter))
        n_tls13 = round(n_visible * spec.tls13_rate)
        port = self._draw(rng, tuple(
            (p, w) for p, w in _normalized(PORT_MODELS[spec.port_model])))
        pool = self.pools.pool(spec.client_pool)
        subset_size = max(1, min(len(pool), round(n_visible * 0.7)))
        clients = tuple(pool[rng.randrange(len(pool))]
                        for _ in range(subset_size))
        shard_of = tuple(rng.randrange(self.shards)
                         for _ in range(n_visible + n_tls13))
        return SpecPlan(
            plan_id=plan_id,
            n_visible=n_visible,
            n_tls13=n_tls13,
            port=port,
            clients=clients,
            shard_of=shard_of,
            visible_shards=frozenset(shard_of[:n_visible]),
        )

    # -- generation -------------------------------------------------------------

    def draw_cell(self, spec: ChainSpec, shard: int, *,
                  plan: Optional[SpecPlan] = None) -> Iterator[CellDraw]:
        """The draw kernel: one (interval, spec) cell's connections.

        Yields one :data:`CellDraw` per connection, ``(visible, client_ip,
        sends_sni, when, result, uid, client_port)``.  The cell has its own
        RNG stream and handshake simulator, both derived from (seed,
        interval, spec digest), so it depends on nothing generated before
        it — any worker can produce it, in any order, with identical
        output.  Per connection the draws are, in this order: the client
        mix roll, the client index, the SNI roll and the time offset from
        the cell stream, then :meth:`HandshakeSimulator.handshake`
        (validation, UID, client port).  Everything that does not vary
        inside the cell — the mix's cumulative bounds and their policies,
        the visible/TLS 1.3 split and the interval window — is worked out
        once before the first draw.

        The cell's connections are its plan indices in ascending order, and
        indices ``< n_visible`` are the monitor-visible TLS 1.2 slice, so a
        cell is its visible connections followed by its TLS 1.3 ones.  The
        server negotiates TLS 1.3 whenever the plan has a TLS 1.3 slice,
        which makes the negotiated version the client's own: TLS 1.2 when
        ``visible``, else TLS 1.3.
        """
        if plan is None:
            plan = self.plan_for(spec)
        n_visible = plan.n_visible
        visible = plan.shard_of[:n_visible].count(shard)
        hidden = plan.shard_of[n_visible:].count(shard)
        if not visible and not hidden:
            return
        stream = f"{self.seed}:{shard:02d}:{plan.plan_id}"
        rng = random.Random(f"workload:{stream}")
        handshake = HandshakeSimulator(seed=f"workload-hs:{stream}").handshake
        # ``_draw`` over the mix, with the running sums and policy lookups
        # done once: the same float additions in the same order, so every
        # roll lands on the same kind.
        bounds = []
        acc = 0.0
        for kind, weight in spec.mix.weights():
            acc += weight
            bounds.append((acc, self._policy_for(kind, spec)))
        fallback = bounds[-1][1]
        clients = plan.clients
        sni_rate = spec.sni_rate
        chain = spec.chain
        start, span = shard_window(shard, self.shards)
        random_ = rng.random
        choice = rng.choice
        uniform = rng.uniform
        for is_visible in (True,) * visible + (False,) * hidden:
            roll = random_()
            for bound, policy in bounds:
                if roll < bound:
                    break
            else:
                policy = fallback
            # ``choice`` draws exactly what clients[randrange(len)] does.
            client_ip = choice(clients)
            sends_sni = random_() < sni_rate
            when = STUDY_START + timedelta(seconds=start + uniform(0, span))
            result, uid, port = handshake(policy, chain, when=when)
            yield (is_visible, client_ip, sends_sni, when, result, uid, port)

    def generate_cell(self, spec: ChainSpec, shard: int, *,
                      plan: Optional[SpecPlan] = None
                      ) -> Iterator[ConnectionRecord]:
        """One cell's connections as monitor-view records.

        A thin wrapper over :meth:`draw_cell`: each draw becomes the
        :class:`ConnectionRecord` that :meth:`HandshakeSimulator.connect`
        would have returned for it.
        """
        if plan is None:
            plan = self.plan_for(spec)
        server = Endpoint(self._server_ip(spec), plan.port)
        hostname = spec.hostname
        chain = spec.chain
        for visible, client_ip, sends_sni, when, result, uid, port in \
                self.draw_cell(spec, shard, plan=plan):
            yield ConnectionRecord(
                uid=uid,
                timestamp=when,
                client=Endpoint(client_ip, port),
                server=server,
                version=TLSVersion.TLS12 if visible else TLSVersion.TLS13,
                sni=hostname if sends_sni else None,
                established=result.ok,
                chain=chain if visible else (),
                validation_detail=result.detail,
            )

    def generate_for_spec(self, spec: ChainSpec) -> Iterator[ConnectionRecord]:
        plan = self.plan_for(spec)
        for shard in range(self.shards):
            yield from self.generate_cell(spec, shard, plan=plan)

    def generate_shard(self, specs: Sequence[ChainSpec], shard: int, *,
                       plans: Optional[Sequence[SpecPlan]] = None
                       ) -> Iterator[ConnectionRecord]:
        """One interval's connections across every spec — a worker's unit."""
        if plans is None:
            plans = [self.plan_for(spec) for spec in specs]
        for spec, plan in zip(specs, plans):
            yield from self.generate_cell(spec, shard, plan=plan)

    def generate(self, specs: Iterable[ChainSpec]) -> Iterator[ConnectionRecord]:
        spec_list = list(specs)
        plans = [self.plan_for(spec) for spec in spec_list]
        for shard in range(self.shards):
            yield from self.generate_shard(spec_list, shard, plans=plans)

    def _server_ip(self, spec: ChainSpec) -> str:
        # Stable per-server external address (seeded, not hash()-based, so
        # it is reproducible across interpreter runs).  A pure function of
        # ``server_id``, drawn once per generator rather than once per cell.
        ip = self._server_ips.get(spec.server_id)
        if ip is None:
            rng = random.Random(f"srvip:{spec.server_id}")
            ip = (f"{rng.choice((93, 104, 151, 172, 185, 198, 203))}."
                  f"{rng.randint(1, 254)}.{rng.randint(1, 254)}."
                  f"{rng.randint(1, 254)}")
            self._server_ips[spec.server_id] = ip
        return ip


def _normalized(entries: Sequence[tuple[int, float]]) -> list[tuple[int, float]]:
    total = sum(w for _, w in entries)
    return [(p, w / total) for p, w in entries]
