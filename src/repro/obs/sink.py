"""Cross-process telemetry: capture in workers, merge in the driver.

The parallel engines keep their central guarantee — byte-identical
output and ``--jobs``-invariant counter exports — by having the driver
emit every canonical metric from the merged result.  Until now that
meant workers ran metrics-*disabled* and spans never left the worker
process, so a ``--jobs 4`` run was a black box between fan-out and
reduce.  This module makes workers observable without touching the
guarantee:

:func:`capture_telemetry`
    A context manager a worker wraps around its unit of work.  It
    snapshots the process-local registry, runs the body with metrics
    and tracing **enabled**, then packages what changed — the counter
    and histogram deltas, plus every span the body finished — into a
    picklable :class:`WorkerTelemetry` and *restores* the registry to
    its baseline.  Restoring makes the mechanism identical inline
    (``jobs=1``, body runs in the driver process) and in a pool worker
    (forked registry, inherited garbage values): either way the body
    leaves no direct trace, and the driver decides what to keep.

:class:`TelemetrySink`
    The driver-side collector.  ``attach()`` is called once per unit in
    deterministic unit order during each engine's reduce.  It stores
    the record (for the trace exporter and run report), replays
    *designated* counter families value-for-value (the families whose
    canonical values genuinely live worker-side, e.g.
    ``repro_faults_injected_total`` label splits), creates — without
    incrementing — any other counter children the worker touched (so
    the driver's child set is identical at any ``--jobs``), and merges
    histogram deltas (timing distributions, free to vary run to run).

This replaces the two previous ad-hoc channels: the ingest engine's
tallying ``FaultInjector._record`` override and the scanner's
hand-rolled ``_TALLIED`` family list.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from threading import Lock
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .metrics import MetricsRegistry, _HistogramChild, get_registry
from .tracing import Tracer, get_tracer

__all__ = ["WorkerSpan", "WorkerTelemetry", "TelemetrySink",
           "capture_telemetry", "get_sink"]

#: (family name, label values, delta) — one captured counter change.
CounterDelta = Tuple[str, Tuple[str, ...], float]
#: (family name, label values, per-bucket deltas, sum delta, count delta).
HistogramDelta = Tuple[str, Tuple[str, ...], Tuple[int, ...], float, int]


@dataclass(slots=True)
class WorkerSpan:
    """One finished span, re-based onto the capture's own timeline."""

    name: str
    path: str
    depth: int
    duration_s: float
    #: Seconds after the capture opened that this span started.
    offset_s: float
    attrs: Dict[str, object] = field(default_factory=dict)


@dataclass(slots=True)
class WorkerTelemetry:
    """Everything one worker unit observed — picklable for the pool.

    ``kind`` names the engine (``ingest``/``generate``/``scan``);
    ``unit`` is the shard / interval / batch index the
    driver labels the merged record with.  ``pid`` and
    ``started_epoch`` (``time.time()`` at capture start) let the trace
    exporter place this worker's spans on the driver's timeline.
    """

    kind: str
    unit: int
    pid: int = 0
    started_epoch: float = 0.0
    duration_s: float = 0.0
    spans: List[WorkerSpan] = field(default_factory=list)
    #: Counter deltas, *including* zero-valued entries for children the
    #: body created but never incremented past baseline — the driver
    #: must create those too or its child set would depend on ``--jobs``.
    counters: List[CounterDelta] = field(default_factory=list)
    histograms: List[HistogramDelta] = field(default_factory=list)

    @property
    def span_count(self) -> int:
        return len(self.spans)


def _counter_baseline(registry: MetricsRegistry) -> Dict[tuple, float]:
    base: Dict[tuple, float] = {}
    for family in registry.families():
        if family.kind == "counter":
            for labels, child in family.samples():
                base[(family.name, labels)] = child.value
    return base


def _histogram_baseline(registry: MetricsRegistry) -> Dict[tuple, tuple]:
    base: Dict[tuple, tuple] = {}
    for family in registry.families():
        if family.kind == "histogram":
            for labels, child in family.samples():
                assert isinstance(child, _HistogramChild)
                base[(family.name, labels)] = (
                    tuple(child.bucket_counts()), child.sum, child.count)
    return base


def _gauge_baseline(registry: MetricsRegistry) -> Dict[tuple, float]:
    base: Dict[tuple, float] = {}
    for family in registry.families():
        if family.kind == "gauge":
            for labels, child in family.samples():
                base[(family.name, labels)] = child.value
    return base


@contextmanager
def capture_telemetry(kind: str, unit: int, *,
                      registry: Optional[MetricsRegistry] = None,
                      tracer: Optional[Tracer] = None
                      ) -> Iterator[WorkerTelemetry]:
    """Run a worker body observed: metrics + spans on, then diffed away.

    Yields the :class:`WorkerTelemetry` that is filled in when the body
    exits.  The registry and tracer are restored to their pre-capture
    state on *any* exit — counter/histogram/gauge values go back to
    baseline (children created by the body stay registered, zeroed, so
    later driver-side replays find an identical child set inline and
    pooled), and the body's finished spans are drained out of the
    tracer into the telemetry instead of polluting the driver's list.
    """
    registry = registry or get_registry()
    tracer = tracer or get_tracer()
    telemetry = WorkerTelemetry(kind=kind, unit=unit, pid=os.getpid(),
                                started_epoch=time.time())
    counter_base = _counter_baseline(registry)
    histogram_base = _histogram_baseline(registry)
    gauge_base = _gauge_baseline(registry)
    previous_metrics = registry.enabled
    previous_tracing = tracer.enabled
    registry.enabled = True
    tracer.enabled = True
    mark = tracer.mark()
    anchor = time.perf_counter()
    try:
        yield telemetry
    finally:
        telemetry.duration_s = time.perf_counter() - anchor
        registry.enabled = previous_metrics
        tracer.enabled = previous_tracing
        for record in tracer.drain(mark):
            telemetry.spans.append(WorkerSpan(
                name=record.name, path=record.path, depth=record.depth,
                duration_s=record.duration_s,
                offset_s=record.start_s - anchor, attrs=dict(record.attrs)))
        for family in registry.families():
            if family.kind == "counter":
                for labels, child in family.samples():
                    base = counter_base.get((family.name, labels))
                    if base is None:
                        # Child born inside the body: ship it (delta may
                        # be zero) and leave it registered at zero.
                        telemetry.counters.append(
                            (family.name, labels, child.value))
                        child.zero()
                    elif child.value != base:
                        telemetry.counters.append(
                            (family.name, labels, child.value - base))
                        with child._lock:
                            child._value = base
            elif family.kind == "histogram":
                for labels, child in family.samples():
                    assert isinstance(child, _HistogramChild)
                    base = histogram_base.get((family.name, labels))
                    if base is None:
                        base = ((0,) * len(family.buckets), 0.0, 0)
                    counts, total, count = base
                    if child.count != count:
                        telemetry.histograms.append((
                            family.name, labels,
                            tuple(now - was for now, was in
                                  zip(child.bucket_counts(), counts)),
                            child.sum - total, child.count - count))
                    with child._lock:
                        child._counts = list(counts)
                        child._sum = total
                        child._count = count
            else:  # gauges are driver-owned: restore, never ship
                for labels, child in family.samples():
                    base = gauge_base.get((family.name, labels), 0.0)
                    with child._lock:
                        child._value = base


class TelemetrySink:
    """Driver-side collector for :class:`WorkerTelemetry` records.

    Engines call :meth:`attach` once per unit, in unit order, inside
    their reduce — so the sink's record list, the replayed counters,
    and the merged histograms are all deterministic functions of the
    corpus, independent of worker count and completion order.
    """

    def __init__(self) -> None:
        self._lock = Lock()
        self.records: List[WorkerTelemetry] = []

    def attach(self, telemetry: Optional[WorkerTelemetry], *,
               replay: Sequence[str] = (),
               record_metrics: bool = True,
               registry: Optional[MetricsRegistry] = None) -> None:
        """Merge one worker's telemetry into the driver.

        ``replay`` names the counter families whose captured deltas are
        re-applied value-for-value — the families whose canonical
        per-label splits only the worker saw (fault kinds, scan attempt
        outcomes).  Every other captured counter child is created but
        left untouched, so the driver's child set — and therefore the
        Prometheus export structure — is identical at any ``--jobs``
        while the *values* stay driver-canonical.  Histogram deltas
        (timing distributions) always merge.  ``record_metrics=False``
        skips the ``repro_worker_*`` bookkeeping counters for engines
        whose unit count varies with ``--jobs`` (the scanner's batches).
        """
        if telemetry is None:
            return
        registry = registry or get_registry()
        with self._lock:
            self.records.append(telemetry)
        replay_set = frozenset(replay)
        for name, labels, delta in telemetry.counters:
            family = registry.get_family(name)
            if family is None or family.kind != "counter":
                continue
            child = family.labels(**dict(zip(family.labelnames, labels)))
            if name in replay_set and delta:
                child.inc(delta)
        if registry.enabled:
            for name, labels, counts, total, count in telemetry.histograms:
                family = registry.get_family(name)
                if family is None or family.kind != "histogram":
                    continue
                child = family.labels(**dict(zip(family.labelnames, labels)))
                assert isinstance(child, _HistogramChild)
                with child._lock:
                    for i, delta in enumerate(counts):
                        child._counts[i] += delta
                    child._sum += total
                    child._count += count
        if record_metrics:
            from . import instruments
            instruments.WORKER_TELEMETRY_RECORDS.inc(kind=telemetry.kind)
            if telemetry.spans:
                instruments.WORKER_SPANS.inc(len(telemetry.spans),
                                             kind=telemetry.kind)

    def spans(self) -> List[Tuple[WorkerTelemetry, WorkerSpan]]:
        """Every collected worker span, in attach (unit) order."""
        with self._lock:
            records = list(self.records)
        return [(telemetry, span) for telemetry in records
                for span in telemetry.spans]

    def summary(self) -> dict:
        """Deterministic per-kind rollup for the run report."""
        with self._lock:
            records = list(self.records)
        by_kind: Dict[str, Dict[str, int]] = {}
        for telemetry in records:
            entry = by_kind.setdefault(telemetry.kind,
                                       {"records": 0, "spans": 0})
            entry["records"] += 1
            entry["spans"] += telemetry.span_count
        return {kind: by_kind[kind] for kind in sorted(by_kind)}

    def reset(self) -> None:
        with self._lock:
            self.records.clear()


#: The process-wide sink every engine reduce attaches to — reset it at
#: the start of a CLI run, next to the registry and tracer resets.
_DEFAULT = TelemetrySink()


def get_sink() -> TelemetrySink:
    return _DEFAULT
