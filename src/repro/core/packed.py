"""Packed chain partials: the zero-pickle shard hand-off layout.

The compiled parallel path returns a :class:`ShardAggregate` whose chain
map pickles one ``ObservedChain`` object graph per distinct chain —
reconstructed ``Certificate`` objects, ``DistinguishedName`` trees, sets
and Counters — which the driver then unpickles only to merge.  This
module replaces that hand-off with four pieces:

* :func:`fold_ssl_segment` — the aggregation loop rewritten over the
  columnar reader's parallel arrays: chain keys are resolved **once per
  distinct interned ``cert_chain_fps`` cell** (not once per row) and the
  per-connection update is exactly one :meth:`ChainUsage.record` call,
  so the fold reproduces legacy ``aggregate_chains`` semantics —
  insertion order, missing-certificate tallies, empty-chain skips —
  without materialising a row object;
* :func:`pack_shard_payload` / :func:`unpack_shard_payload` — a compact
  binary column layout (``bytes``) for the fold's output plus the
  shard's de-duplicated X509 rows: numeric columns as native arrays with
  None-bitmaps, strings as ids against one payload-global deduplicated
  string table.  Pickling the resulting ``bytes`` blob is a memcpy;
* :func:`merge_shard_columns` — the driver-side reduce: folds one
  shard's unpacked usage columns straight into the merged
  ``{key: ChainUsage}`` map with :meth:`ChainUsage.merge` semantics;
* :func:`materialize_chains` — builds the ``ObservedChain`` objects from
  chain keys, usages and a certificate map, once, after the last shard is
  merged.

A shard ships its X509 section only when it *owns* its x509 file (the
lowest-index shard reading it); the other shards of that file send an
empty section and the driver rebuilds each certificate table once.

The layout is self-describing length-prefixed blobs, native byte order
(worker and driver always share one machine).  Sets round-trip through
lists (set equality is order-free); ``Counter`` key order — observable
in merged output — is preserved exactly.
"""

from __future__ import annotations

import struct
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from .chain import ChainUsage, ObservedChain

__all__ = ["ChainFold", "fold_ssl_segment", "ShardColumns",
           "pack_shard_payload", "unpack_shard_payload",
           "merge_shard_columns", "materialize_chains", "X509_COLUMN_SPEC"]

_MAGIC = b"RPK2"

#: The shipped X509 columns: name and codec kind, in record-field order.
#: Kinds: ``f`` nullable float, ``i`` nullable int, ``s`` string id,
#: ``ss`` string-id sequence, ``b`` nullable bool.
X509_COLUMN_SPEC: Tuple[Tuple[str, str], ...] = (
    ("ts", "f"),
    ("fingerprint", "s"),
    ("certificate.version", "i"),
    ("certificate.serial", "s"),
    ("certificate.subject", "s"),
    ("certificate.issuer", "s"),
    ("certificate.not_valid_before", "f"),
    ("certificate.not_valid_after", "f"),
    ("certificate.key_alg", "s"),
    ("certificate.sig_alg", "s"),
    ("certificate.key_length", "i"),
    ("san.dns", "ss"),
    ("basic_constraints.ca", "b"),
    ("basic_constraints.path_len", "i"),
)


# -- the columnar aggregation fold --------------------------------------------

@dataclass(slots=True)
class ChainFold:
    """Accumulates one shard's chain partials across SSL segments."""

    chains: Dict[Tuple[Optional[str], ...], ChainUsage] = field(
        default_factory=dict)
    joined: int = 0
    missing_certs: int = 0
    aggregated: int = 0


def fold_ssl_segment(fold: ChainFold, *, known_fps: frozenset,
                     ts: Sequence, client_ip: Sequence, server_ip: Sequence,
                     port: Sequence, established: Sequence,
                     sni_ids: Sequence[int], sni_values: Sequence,
                     chain_ids: Sequence[int], chain_values: Sequence) -> None:
    """Fold one columnar SSL segment into ``fold``.

    Mirrors ``iter_joined`` + ``aggregate_chains`` exactly: every row
    counts as joined, each referenced fingerprint absent from
    ``known_fps`` counts as one missing certificate (per occurrence),
    empty resolved keys are skipped, and usage updates go through
    :meth:`ChainUsage.record` so every set/Counter/window semantic —
    including ``None`` clients, SNI truthiness, and timestamp folds —
    is the legacy code itself.  ``sni_ids``/``chain_ids`` index into
    their intern tables' value lists; the chain key and its missing
    count are resolved once per distinct interned cell.
    """
    # (resolved key, missing count) per distinct cert_chain_fps cell
    resolved: List[Optional[Tuple[tuple, int]]] = [None] * len(chain_values)
    chains = fold.chains
    chains_get = chains.get
    joined = missing = aggregated = 0
    for ts_v, cip, sip, prt, est, sid, cid in zip(
            ts, client_ip, server_ip, port, established, sni_ids, chain_ids):
        entry = resolved[cid]
        if entry is None:
            fps = chain_values[cid] or ()
            key = tuple(fp for fp in fps if fp in known_fps)
            entry = (key, len(fps) - len(key))
            resolved[cid] = entry
        key, absent = entry
        joined += 1
        missing += absent
        if not key:
            continue
        usage = chains_get(key)
        if usage is None:
            usage = chains[key] = ChainUsage()
        usage.record(established=bool(est), client_ip=cip, server_ip=sip,
                     port=prt, sni=sni_values[sid], ts=ts_v)
        aggregated += 1
    fold.joined += joined
    fold.missing_certs += missing
    fold.aggregated += aggregated


# -- binary column codec ------------------------------------------------------

class _Writer:
    """Length-prefixed column blobs plus one deduplicated string table."""

    __slots__ = ("_parts", "_string_ids", "strings")

    def __init__(self) -> None:
        self._parts: List[bytes] = []
        self._string_ids: Dict[str, int] = {}
        self.strings: List[str] = []

    def blob(self, data: bytes) -> None:
        self._parts.append(struct.pack("<Q", len(data)))
        self._parts.append(data)

    def string_id(self, value: Optional[str]) -> int:
        if value is None:
            return -1
        sid = self._string_ids.get(value)
        if sid is None:
            sid = len(self.strings)
            self._string_ids[value] = sid
            self.strings.append(value)
        return sid

    def counts(self, values: Sequence[int]) -> None:
        """Non-nullable int column."""
        self.blob(array("q", values).tobytes())

    def int_column(self, values: Sequence[Optional[int]]) -> None:
        self.blob(bytes(v is None for v in values))
        self.blob(array("q", [0 if v is None else v for v in values])
                  .tobytes())

    def float_column(self, values: Sequence[Optional[float]]) -> None:
        self.blob(bytes(v is None for v in values))
        self.blob(array("d", [0.0 if v is None else v for v in values])
                  .tobytes())

    def bool_column(self, values: Sequence[Optional[bool]]) -> None:
        self.blob(bytes(v is None for v in values))
        self.blob(bytes(bool(v) for v in values))

    def string_column(self, values: Sequence[Optional[str]]) -> None:
        self.blob(array("q", [self.string_id(v) for v in values]).tobytes())

    def string_seq_column(
            self, seqs: Sequence[Optional[Sequence[Optional[str]]]]) -> None:
        lens = array("q")
        flat = array("q")
        for seq in seqs:
            if seq is None:
                lens.append(-1)
            else:
                lens.append(len(seq))
                for value in seq:
                    flat.append(self.string_id(value))
        self.blob(lens.tobytes())
        self.blob(flat.tobytes())

    def render(self) -> bytes:
        """Magic, body, then the string table: its per-string character
        lengths and one UTF-8 blob of all strings, decoded in one call."""
        body = b"".join(self._parts)
        lengths = array("q", map(len, self.strings)).tobytes()
        text = "".join(self.strings).encode("utf-8")
        return b"".join([_MAGIC, struct.pack("<Q", len(body)), body,
                         struct.pack("<QQ", len(self.strings), len(text)),
                         lengths, text])


class _Reader:
    """Reads :class:`_Writer` output; string table parsed up front.

    ``strings`` ends with a ``None`` sentinel, so the writer's ``-1``
    (``None``) id resolves by plain indexing.
    """

    __slots__ = ("_view", "_pos", "strings")

    def __init__(self, payload: bytes) -> None:
        if payload[:4] != _MAGIC:
            raise ValueError("not a packed shard payload")
        try:
            (body_len,) = struct.unpack_from("<Q", payload, 4)
            self._view = memoryview(payload)
            self._pos = 12
            pos = 12 + body_len
            count, size = struct.unpack_from("<QQ", payload, pos)
            pos += 16
            lengths = array("q")
            lengths.frombytes(payload[pos:pos + 8 * count])
            pos += 8 * count
            raw = payload[pos:pos + size]
            if len(raw) != size:
                raise ValueError("corrupt shard payload: short string table")
            text = raw.decode("utf-8")
            ends = list(accumulate(lengths))
            if ends and ends[-1] != len(text):
                raise ValueError("corrupt shard payload: bad string table")
            self.strings: List[Optional[str]] = [
                text[start:end] for start, end in zip([0, *ends], ends)]
            self.strings.append(None)
        except struct.error as error:  # truncated or mangled hand-off
            raise ValueError(
                f"corrupt shard payload: {error}") from error

    def blob(self) -> memoryview:
        (n,) = struct.unpack_from("<Q", self._view, self._pos)
        self._pos += 8
        data = self._view[self._pos:self._pos + n]
        self._pos += n
        return data

    def _ints(self) -> List[int]:
        values = array("q")
        values.frombytes(bytes(self.blob()))
        return values.tolist()

    counts = _ints

    def int_column(self) -> List[Optional[int]]:
        mask = bytes(self.blob())
        return [None if m else v for m, v in zip(mask, self._ints())]

    def float_column(self) -> List[Optional[float]]:
        mask = bytes(self.blob())
        values = array("d")
        values.frombytes(bytes(self.blob()))
        return [None if m else v for m, v in zip(mask, values.tolist())]

    def bool_column(self) -> List[Optional[bool]]:
        mask = bytes(self.blob())
        values = bytes(self.blob())
        return [None if m else bool(v) for m, v in zip(mask, values)]

    def string_column(self) -> List[Optional[str]]:
        return list(map(self.strings.__getitem__, self._ints()))

    def string_seq_column(self) -> List[Optional[Tuple[Optional[str], ...]]]:
        lens = self._ints()
        values = self.string_column()
        out: List[Optional[Tuple[Optional[str], ...]]] = []
        pos = 0
        for n in lens:
            if n < 0:
                out.append(None)
            else:
                out.append(tuple(values[pos:pos + n]))
                pos += n
        return out


_WRITE_KIND = {"f": _Writer.float_column, "i": _Writer.int_column,
               "b": _Writer.bool_column, "s": _Writer.string_column,
               "ss": _Writer.string_seq_column}
_READ_KIND = {"f": _Reader.float_column, "i": _Reader.int_column,
              "b": _Reader.bool_column, "s": _Reader.string_column,
              "ss": _Reader.string_seq_column}


# -- shard payloads -----------------------------------------------------------

@dataclass(slots=True)
class ShardColumns:
    """One shard's unpacked hand-off: raw usage columns + X509 columns.

    The usage accumulators stay as parallel columns (one entry per
    chain; ports as per-chain widths over flat key/count arrays) so the
    driver can fold them straight into its merged map with
    :func:`merge_shard_columns`; :attr:`usages` builds
    :class:`ChainUsage` objects only when a caller asks for them.
    """

    chain_keys: List[Tuple[Optional[str], ...]]
    connections: List[int]
    established: List[int]
    sni_present: List[int]
    first_seen: List[Optional[float]]
    last_seen: List[Optional[float]]
    client_ips: List[Optional[Tuple[Optional[str], ...]]]
    server_ips: List[Optional[Tuple[Optional[str], ...]]]
    snis: List[Optional[Tuple[Optional[str], ...]]]
    port_lens: List[int]
    flat_ports: List[Optional[int]]
    flat_counts: List[int]
    #: Distinct certificate fingerprints, first-seen row order.
    cert_fingerprints: List[Optional[str]]
    #: De-duplicated X509 rows (last row per fingerprint, first-seen
    #: fingerprint order) as name-keyed parallel columns.
    x509_columns: Dict[str, list]

    def _usage(self, i: int, pos: int) -> ChainUsage:
        """Chain ``i``'s accumulator; its ports start at ``pos``."""
        ports: Counter = Counter()
        for j in range(pos, pos + self.port_lens[i]):
            ports[self.flat_ports[j]] = self.flat_counts[j]
        return ChainUsage(
            connections=self.connections[i],
            established=self.established[i],
            client_ips=set(self.client_ips[i] or ()), ports=ports,
            sni_present=self.sni_present[i], snis=set(self.snis[i] or ()),
            first_seen=self.first_seen[i], last_seen=self.last_seen[i],
            server_ips=set(self.server_ips[i] or ()))

    @property
    def usages(self) -> List[ChainUsage]:
        """The usage columns as :class:`ChainUsage` objects, key order."""
        usages: List[ChainUsage] = []
        pos = 0
        for i, width in enumerate(self.port_lens):
            usages.append(self._usage(i, pos))
            pos += width
        return usages


def pack_shard_payload(*, chain_keys: Sequence[Tuple[Optional[str], ...]],
                       usages: Sequence[ChainUsage],
                       cert_fingerprints: Sequence[Optional[str]],
                       x509_columns: Dict[str, list]) -> bytes:
    """Pack one shard's fold output into a compact ``bytes`` payload."""
    writer = _Writer()
    writer.counts([len(chain_keys)])
    writer.string_seq_column(chain_keys)
    writer.counts([u.connections for u in usages])
    writer.counts([u.established for u in usages])
    writer.counts([u.sni_present for u in usages])
    writer.float_column([u.first_seen for u in usages])
    writer.float_column([u.last_seen for u in usages])
    writer.string_seq_column([list(u.client_ips) for u in usages])
    writer.string_seq_column([list(u.server_ips) for u in usages])
    writer.string_seq_column([list(u.snis) for u in usages])
    # ports: per-chain width, then flat (key, count) pairs in the exact
    # Counter insertion order — merged output key order depends on it
    writer.counts([len(u.ports) for u in usages])
    writer.int_column([p for u in usages for p in u.ports])
    writer.counts([c for u in usages for c in u.ports.values()])
    writer.string_column(cert_fingerprints)
    n_x509 = len(next(iter(x509_columns.values()), []))
    writer.counts([n_x509])
    for name, kind in X509_COLUMN_SPEC:
        _WRITE_KIND[kind](writer, x509_columns[name])
    return writer.render()


def unpack_shard_payload(payload: bytes) -> ShardColumns:
    """Inverse of :func:`pack_shard_payload`."""
    reader = _Reader(payload)
    (n_chains,) = reader.counts()
    chain_keys = [key or () for key in reader.string_seq_column()]
    columns = ShardColumns(
        chain_keys=chain_keys, connections=reader.counts(),
        established=reader.counts(), sni_present=reader.counts(),
        first_seen=reader.float_column(), last_seen=reader.float_column(),
        client_ips=reader.string_seq_column(),
        server_ips=reader.string_seq_column(),
        snis=reader.string_seq_column(), port_lens=reader.counts(),
        flat_ports=reader.int_column(), flat_counts=reader.counts(),
        cert_fingerprints=reader.string_column(), x509_columns={})
    (n_x509,) = reader.counts()
    columns.x509_columns = {name: _READ_KIND[kind](reader)
                            for name, kind in X509_COLUMN_SPEC}
    if (len(chain_keys) != n_chains
            or len(columns.port_lens) != n_chains
            or sum(columns.port_lens) != len(columns.flat_ports)):
        raise ValueError("corrupt shard payload: ragged usage columns")
    for column in columns.x509_columns.values():
        if len(column) != n_x509:
            raise ValueError("corrupt shard payload: ragged X509 columns")
    return columns


def merge_shard_columns(merged: Dict[tuple, ChainUsage],
                        columns: ShardColumns) -> List[tuple]:
    """Fold one shard's usage columns into the driver's ``merged`` map.

    Exactly what materialising the shard's usages and calling
    :meth:`ChainUsage.merge` per chain would do, without building a
    throwaway accumulator for keys ``merged`` already holds: counts
    add, sets union, ports add in the shard's ``Counter`` key order
    (an existing port keeps its place, a new one goes last — every
    packed count is positive, so ``Counter.__iadd__`` drops nothing),
    and both window endpoints fold through
    :meth:`ChainUsage.observe_timestamp`.  Keys new to ``merged`` take
    a fresh accumulator and are appended in shard discovery order.
    Returns those new keys, in order.
    """
    added: List[tuple] = []
    merged_get = merged.get
    flat_ports = columns.flat_ports
    flat_counts = columns.flat_counts
    pos = 0
    for i, (key, width) in enumerate(zip(columns.chain_keys,
                                         columns.port_lens)):
        usage = merged_get(key)
        if usage is None:
            merged[key] = columns._usage(i, pos)
            added.append(key)
        else:
            usage.connections += columns.connections[i]
            usage.established += columns.established[i]
            usage.client_ips.update(columns.client_ips[i] or ())
            usage.server_ips.update(columns.server_ips[i] or ())
            ports = usage.ports
            for j in range(pos, pos + width):
                ports[flat_ports[j]] += flat_counts[j]
            usage.sni_present += columns.sni_present[i]
            usage.snis.update(columns.snis[i] or ())
            for ts in (columns.first_seen[i], columns.last_seen[i]):
                if ts is not None:
                    usage.observe_timestamp(ts)
        pos += width
    return added


def materialize_chains(chain_keys: Sequence[Tuple[Optional[str], ...]],
                       usages: Sequence[ChainUsage],
                       certificates: Dict[Optional[str], object]
                       ) -> Dict[tuple, ObservedChain]:
    """Build the ``chains`` dict from keys, usages and certificates.

    The dict keeps ``chain_keys`` order — shard discovery order, or the
    merged map's order after :func:`merge_shard_columns` — which is what
    ``aggregate_chains`` over the concatenated shards would produce.
    Every key fingerprint is present in ``certificates`` by
    construction (the fold only keeps known fingerprints).
    """
    return {key: ObservedChain(tuple(certificates[fp] for fp in key),
                               usage=usage)
            for key, usage in zip(chain_keys, usages)}
