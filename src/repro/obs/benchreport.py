"""Bench trajectory reporting: ``repro-experiments bench-report``.

The perf CI job writes ``BENCH_ingest.json`` / ``BENCH_analyze.json`` /
``BENCH_generate.json`` / ``BENCH_e2e.json`` and gates a handful of
floors with inline asserts.  Those gates answer "did this run pass?"
but nothing answered "where is this metric *heading*?" — a 5% loss per
PR sails under any single floor until it doesn't.  This module loads
every available copy of each bench file (the fresh repo-root ones plus
any ``--history`` directories of downloaded CI artifacts), orders runs
per bench, and prints a per-metric trajectory table: current value,
delta vs the previous run, the floor, and the margin above it.  With
``--check`` it exits non-zero when a floor is violated or a gated
metric regressed past ``--tolerance`` — the same verdicts as the
existing gates, now with the history that explains them.

Also home to :func:`host_metadata`, the shared helper every bench
writer embeds so trajectory comparisons across runners are sound (a
30k rows/s "regression" that is actually a 1-CPU runner is visible as
such), and to :func:`interleaved_rounds` / :func:`round_ratios`, the
measurement behind the ratio gates.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.report import render_table

__all__ = ["Gate", "BenchRun", "DEFAULT_GATES", "host_metadata",
           "interleaved_rounds", "round_ratios",
           "flatten_numbers", "load_history", "build_rows", "main"]

#: Bench file stems the reporter knows about, in pipeline order.
BENCH_KINDS = ("BENCH_ingest", "BENCH_analyze", "BENCH_generate", "BENCH_e2e",
               "BENCH_resilience")


def host_metadata(*, requested_jobs: Optional[int] = None,
                  effective_jobs: Optional[int] = None) -> dict:
    """Uniform host block for every ``BENCH_*.json`` writer.

    Records what the numbers were measured *on*, so a trajectory across
    CI runners (or a laptop vs CI) compares like with like.  Jobs
    counts are included when the bench exercised a worker pool —
    ``requested`` vs ``effective`` exposes the CPU clamp.
    """
    meta: dict = {
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
        "platform": platform.platform(),
    }
    if requested_jobs is not None:
        meta["requested_jobs"] = requested_jobs
    if effective_jobs is not None:
        meta["effective_jobs"] = effective_jobs
    return meta


def interleaved_rounds(first: Callable[[], object],
                       second: Callable[[], object], *, rounds: int = 5,
                       min_seconds: float = 0.5
                       ) -> Tuple[List[float], List[float]]:
    """Seconds per call of two operations, over interleaved rounds.

    Rounds alternate ``first``, ``second``, ``first``, ... so load drift
    on a shared runner lands on both sides alike.  Each round repeats its
    operation until at least ``min_seconds`` have elapsed and records
    the mean seconds per call: a ratio of two ~30 ms single shots swings
    with scheduler noise, a ratio of two half-second averages does not.
    """
    def one_round(operation: Callable[[], object]) -> float:
        calls = 0
        start = time.perf_counter()
        while True:
            operation()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_seconds:
                return elapsed / calls

    first_samples: List[float] = []
    second_samples: List[float] = []
    for _ in range(rounds):
        first_samples.append(one_round(first))
        second_samples.append(one_round(second))
    return first_samples, second_samples


def round_ratios(numerators: Sequence[float],
                 denominators: Sequence[float]) -> dict:
    """Each interleaved round's ratio and the quartiles of those ratios."""
    # Imported here: every CLI start imports this module, and statistics
    # pulls in decimal and fractions.
    import statistics

    ratios = [n / d for n, d in zip(numerators, denominators)]
    return {"round_ratios": ratios,
            "ratio_quartiles": statistics.quantiles(ratios, n=4,
                                                    method="inclusive")}


@dataclass(frozen=True, slots=True)
class Gate:
    """One bound on ``metric`` (dotted path) in ``bench``.

    A ``floor`` gate fails when the value drops below it (throughputs,
    speedups); a ``ceiling`` gate fails when the value rises above it
    (wall-clock budgets).  Exactly one of the two is set.  These mirror
    the enforcement already spread across the benchmark asserts and the
    CI inline gates — bench-report must reproduce those verdicts, not
    invent new ones.
    """

    bench: str
    metric: str
    floor: Optional[float] = None
    ceiling: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.floor is None) == (self.ceiling is None):
            raise ValueError("a Gate needs exactly one of floor/ceiling")


#: The floors (and wall-clock ceilings) the repo already enforces, one place.
DEFAULT_GATES: Tuple[Gate, ...] = (
    Gate("BENCH_ingest", "read.compiled_rows_per_second", 60_000),
    Gate("BENCH_ingest", "read.compiled_over_legacy", 1.2),
    # Columnar design target: >=500k rows/s single core, ~4x the
    # compiled codec (PERFORMANCE.md records the quiet-box numbers).
    # Like the compiled floors above, the gates sit at roughly half of
    # typical so load swings on shared 1-CPU runners cannot flake CI.
    Gate("BENCH_ingest", "read.columnar_rows_per_second", 250_000),
    Gate("BENCH_ingest", "read.columnar_over_compiled", 2.0),
    Gate("BENCH_ingest", "engine.1.speedup_vs_serial", 1.1),
    # The columnar engine must not lose to the row engine it replaced
    # (interleaved rounds at jobs=1; eleven runs on a 2-CPU host read
    # 1.91-2.38x before this floor was set).
    Gate("BENCH_ingest", "engine.1.columnar_over_rowwise", 1.0),
    Gate("BENCH_analyze", "serial.chains_per_second", 5_000),
    Gate("BENCH_analyze", "artifact.warm_speedup", 5),
    Gate("BENCH_generate", "write.compiled_over_legacy", 1.5),
    Gate("BENCH_generate", "engine.1.rows_written_per_second", 5_000),
    Gate("BENCH_generate", "der.part_memo_speedup", 1.25),
    # The whole pipeline (generate + ingest + analyze, jobs=1) must fit
    # a wall-clock budget at the bench scale: a ceiling, not a floor.
    Gate("BENCH_e2e", "pipeline.1.total_seconds", ceiling=10.0),
    # Supervised dispatch may cost at most 5% over a bare inline loop
    # (the ratio is baseline/supervised, so the floor is 0.95).
    Gate("BENCH_resilience", "supervisor.throughput_ratio", 0.95),
)

#: Ungated metrics still worth a trajectory row per bench kind.
TRACKED_METRICS: Dict[str, Tuple[str, ...]] = {
    "BENCH_ingest": ("serial_legacy.rows_per_second",
                     "engine.1.rows_per_second"),
    "BENCH_analyze": ("artifact.cold_seconds", "artifact.warm_seconds"),
    "BENCH_generate": ("write.compiled_rows_per_second",),
    "BENCH_e2e": ("pipeline.1.total_seconds", "pipeline.1.generate_seconds",
                  "pipeline.1.ingest_seconds", "pipeline.1.analyze_seconds"),
    "BENCH_resilience": ("supervisor.baseline_seconds",
                         "supervisor.supervised_seconds"),
}


@dataclass(slots=True)
class BenchRun:
    """One parsed ``BENCH_*.json`` file."""

    kind: str
    path: str
    mtime: float
    numbers: Dict[str, float] = field(default_factory=dict)


def flatten_numbers(data: object, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a nested bench dict as ``a.b.c`` paths."""
    out: Dict[str, float] = {}
    if isinstance(data, dict):
        for key, value in data.items():
            out.update(flatten_numbers(value,
                                       f"{prefix}{key}."))
    elif isinstance(data, (int, float)) and not isinstance(data, bool):
        out[prefix[:-1]] = float(data)
    return out


def _kind_of(path: str) -> Optional[str]:
    name = os.path.basename(path)
    for kind in BENCH_KINDS:
        if name == f"{kind}.json" or name.startswith(f"{kind}."):
            return kind
    return None


def load_history(directories: Sequence[str]) -> Dict[str, List[BenchRun]]:
    """Per bench kind, every parseable run found, oldest first.

    Later directories win ties only through mtime ordering; unreadable
    or non-JSON files are skipped with a note on stderr rather than
    failing the report (CI artifact folders collect clutter).
    """
    runs: Dict[str, List[BenchRun]] = {}
    seen: set = set()
    for directory in directories:
        for path in sorted(glob.glob(os.path.join(directory, "**",
                                                  "BENCH_*.json"),
                                     recursive=True)):
            kind = _kind_of(path)
            if kind is None:
                continue
            real = os.path.realpath(path)
            if real in seen:  # overlapping --dir arguments
                continue
            seen.add(real)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
            except (OSError, ValueError) as exc:
                print(f"bench-report: skipping {path}: {exc}",
                      file=sys.stderr)
                continue
            runs.setdefault(kind, []).append(BenchRun(
                kind=kind, path=path, mtime=os.path.getmtime(path),
                numbers=flatten_numbers(data)))
    for kind in runs:
        runs[kind].sort(key=lambda run: (run.mtime, run.path))
    return runs


@dataclass(slots=True)
class ReportRow:
    kind: str
    metric: str
    current: float
    previous: Optional[float]
    floor: Optional[float]
    tolerance: float
    ceiling: Optional[float] = None

    @property
    def delta_pct(self) -> Optional[float]:
        if self.previous is None or self.previous == 0:
            return None
        return 100.0 * (self.current - self.previous) / self.previous

    @property
    def margin_pct(self) -> Optional[float]:
        """Distance from the bound, positive = healthy, either direction."""
        if self.floor is not None and self.floor != 0:
            return 100.0 * (self.current - self.floor) / self.floor
        if self.ceiling is not None and self.ceiling != 0:
            return 100.0 * (self.ceiling - self.current) / self.ceiling
        return None

    @property
    def bound(self) -> Optional[float]:
        return self.floor if self.floor is not None else self.ceiling

    @property
    def status(self) -> str:
        if self.floor is not None and self.current < self.floor:
            return "FLOOR"
        if self.ceiling is not None and self.current > self.ceiling:
            return "CEILING"
        delta = self.delta_pct
        if delta is not None:
            # Regression direction flips for ceiling (lower-is-better)
            # metrics: growth past tolerance is the regression.
            if self.floor is not None and delta < -self.tolerance:
                return "REGRESSED"
            if self.ceiling is not None and delta > self.tolerance:
                return "REGRESSED"
        return "ok"

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def build_rows(runs: Dict[str, List[BenchRun]],
               gates: Sequence[Gate] = DEFAULT_GATES, *,
               tolerance: float = 10.0,
               include_all: bool = False) -> List[ReportRow]:
    """Trajectory rows for every gated (and tracked) metric present."""
    floors = {(gate.bench, gate.metric): gate.floor for gate in gates}
    ceilings = {(gate.bench, gate.metric): gate.ceiling for gate in gates}
    rows: List[ReportRow] = []
    for kind in BENCH_KINDS:
        history = runs.get(kind, [])
        if not history:
            continue
        current = history[-1]
        previous = history[-2] if len(history) > 1 else None
        metrics = [gate.metric for gate in gates if gate.bench == kind]
        metrics += [m for m in TRACKED_METRICS.get(kind, ())
                    if m not in metrics]
        if include_all:
            metrics += [m for m in sorted(current.numbers)
                        if m not in metrics]
        for metric in metrics:
            if metric not in current.numbers:
                continue
            rows.append(ReportRow(
                kind=kind, metric=metric,
                current=current.numbers[metric],
                previous=(previous.numbers.get(metric)
                          if previous is not None else None),
                floor=floors.get((kind, metric)),
                ceiling=ceilings.get((kind, metric)),
                tolerance=tolerance))
    return rows


def _fmt(value: Optional[float], suffix: str = "") -> str:
    if value is None:
        return "-"
    if abs(value) >= 1000:
        return f"{value:,.0f}{suffix}"
    return f"{value:,.2f}{suffix}"


def render_report(rows: Sequence[ReportRow],
                  runs: Dict[str, List[BenchRun]]) -> str:
    """The human trajectory table plus a per-bench provenance footer."""
    table = render_table(
        ["bench", "metric", "current", "vs prev", "bound", "margin",
         "status"],
        [[row.kind.removeprefix("BENCH_"), row.metric, _fmt(row.current),
          _fmt(row.delta_pct, "%"),
          (_fmt(row.ceiling) + " max" if row.ceiling is not None
           else _fmt(row.floor)),
          _fmt(row.margin_pct, "%"), row.status]
         for row in rows],
        title="Benchmark trajectory")
    lines = [table, ""]
    for kind in BENCH_KINDS:
        history = runs.get(kind, [])
        if history:
            lines.append(f"{kind}: {len(history)} run"
                         f"{'s' if len(history) != 1 else ''}, "
                         f"latest {history[-1].path}")
    return "\n".join(lines)


def build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments bench-report",
        description="Per-metric trajectory over BENCH_*.json history, "
                    "with floor margins and regression gating")
    parser.add_argument("--dir", action="append", dest="directories",
                        metavar="DIR",
                        help="directory to scan (recursively) for "
                             "BENCH_*.json files; repeatable "
                             "(default: current directory)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a floor is violated or a gated "
                             "metric regressed past --tolerance")
    parser.add_argument("--tolerance", type=float, default=10.0,
                        metavar="PCT",
                        help="allowed drop vs the previous run for gated "
                             "metrics, in percent (default 10)")
    parser.add_argument("--all", action="store_true", dest="include_all",
                        help="include every numeric metric, not just the "
                             "gated and tracked ones")
    parser.add_argument("--json", metavar="PATH", dest="json_out",
                        help="also write the rows as JSON to PATH")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_argparser().parse_args(argv)
    directories = args.directories or [os.getcwd()]
    runs = load_history(directories)
    if not runs:
        print("bench-report: no BENCH_*.json files under "
              + ", ".join(directories), file=sys.stderr)
        return 2
    rows = build_rows(runs, tolerance=args.tolerance,
                      include_all=args.include_all)
    print(render_report(rows, runs))
    if args.json_out:
        payload = [{"bench": row.kind, "metric": row.metric,
                    "current": row.current, "previous": row.previous,
                    "delta_pct": row.delta_pct, "floor": row.floor,
                    "ceiling": row.ceiling,
                    "margin_pct": row.margin_pct, "status": row.status}
                   for row in rows]
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    failures = [row for row in rows if row.failed]
    if failures:
        print()
        for row in failures:
            bound_kind = "ceiling" if row.ceiling is not None else "floor"
            print(f"FAIL {row.kind} {row.metric}: "
                  f"{_fmt(row.current)} ({bound_kind} {_fmt(row.bound)}, "
                  f"vs prev {_fmt(row.delta_pct, '%')}) [{row.status}]")
        if args.check:
            return 1
    return 0
