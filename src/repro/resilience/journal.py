"""Crash-safe run journals: resume a killed parallel run mid-corpus.

A checkpoint (:mod:`repro.resilience.checkpoint`) saves whole *stages* —
useless for a run killed halfway through stage 0, which loses every
completed shard.  A :class:`RunJournal` records progress at *task*
granularity: each completed supervised task saves its partial result
into a content-addressed :class:`~repro.resilience.checkpoint.ArtifactStore`
under the journal directory, then appends one JSON line — task id,
input fingerprint, artifact pointer — to an append-only ``journal.jsonl``.
The line is flushed and fsync'd before the task counts as done, so the
journal never claims work the disk does not hold.

On ``--resume`` the supervisor replays the journal: a task whose
recorded fingerprint still matches its current input is served from its
saved partial (and, because partials are merged in task order
regardless of which run produced them, the final tables are identical
to an uninterrupted run); a task whose input changed reads as *stale*
and recomputes.  A torn trailing line — the signature of a driver
killed mid-append — is tolerated: intact lines before it replay
normally, the torn tail is dropped with a warning, and that one task
recomputes.  Events are counted on ``repro_supervisor_journal_total``.

The journal keys on task ids and input fingerprints only — not on the
full engine configuration — so a journal directory belongs to one run
configuration.  The CLI namespaces per-engine subdirectories
(``<dir>/ingest``, ``<dir>/generate``) under
``--run-journal`` for exactly that reason.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional, Tuple

from ..obs import instruments
from ..obs.logging import get_logger, kv
from .checkpoint import ArtifactStore

__all__ = ["RunJournal"]

log = get_logger(__name__)

#: The append-only completion log inside a journal directory.
JOURNAL_NAME = "journal.jsonl"


class RunJournal:
    """Append-only task-completion journal + partial-artifact store."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, JOURNAL_NAME)
        self.artifacts = ArtifactStore(os.path.join(directory, "partials"))
        self._handle = None

    # -- replay -----------------------------------------------------------------

    def completed(self) -> Dict[str, str]:
        """``task id -> fingerprint`` for every intact journal line.

        Unreadable lines (a torn tail from a killed driver, stray
        garbage) are dropped with a warning — never an exception: a
        corrupted journal must degrade to "recompute that task", not
        abort the resume that exists to recover from crashes.  Later
        lines win when a task id repeats (a recomputed task re-appends).
        """
        entries: Dict[str, str] = {}
        if not os.path.exists(self.path):
            return entries
        with open(self.path, "r", encoding="utf-8") as handle:
            for lineno, text in enumerate(handle, start=1):
                stripped = text.strip()
                if not stripped:
                    continue
                try:
                    entry = json.loads(stripped)
                except json.JSONDecodeError:
                    instruments.SUPERVISOR_JOURNAL.inc(result="torn")
                    log.warning("run journal line unreadable; dropping",
                                extra=kv(path=self.path, line=lineno))
                    continue
                if not isinstance(entry, dict) or "task" not in entry:
                    instruments.SUPERVISOR_JOURNAL.inc(result="torn")
                    continue
                entries[str(entry["task"])] = str(
                    entry.get("fingerprint", ""))
        return entries

    def load_partial(self, kind: str,
                     fingerprint: str) -> Tuple[bool, Any]:
        """The saved partial for one journaled task, or ``(False, None)``."""
        return self.artifacts.load(f"{kind}-partial", fingerprint)

    # -- append -----------------------------------------------------------------

    def record(self, kind: str, task_id: str, fingerprint: str,
               payload: Any) -> None:
        """Persist one completed task: artifact first, then the line.

        Ordering matters for crash safety — the artifact write is itself
        atomic (tmp + replace + fsync), and the journal line lands only
        after it, so every line the journal holds points at a partial
        that is really on disk.  The line is written whole, flushed, and
        fsync'd: a crash mid-append can tear at most the final line,
        which :meth:`completed` drops.  Appending to a journal whose
        tail *is* torn (resuming after exactly such a crash) first
        seals the fragment with a newline — otherwise the new record
        would concatenate onto it and both would read as garbage.
        """
        self.artifacts.save(f"{kind}-partial", fingerprint, payload)
        line = json.dumps({"task": task_id, "kind": kind,
                           "fingerprint": fingerprint,
                           "artifact": os.path.basename(
                               self.artifacts.path(f"{kind}-partial",
                                                   fingerprint))},
                          sort_keys=True)
        if self._handle is None:
            torn_tail = False
            try:
                with open(self.path, "rb") as probe:
                    probe.seek(-1, os.SEEK_END)
                    torn_tail = probe.read(1) != b"\n"
            except OSError:  # missing or empty journal: nothing to seal
                pass
            self._handle = open(self.path, "a", encoding="utf-8")
            if torn_tail:
                self._handle.write("\n")
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        instruments.SUPERVISOR_JOURNAL.inc(result="appended")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: object) -> Optional[bool]:
        self.close()
        return None
