"""The JSONL run journal: one line per campaign execution event.

A :class:`RunJournal` is an append-only JSON-lines file.  While one is
active (:func:`set_journal` / :func:`journal_to`), the campaign runner
(:mod:`repro.experiments.runner`) writes one ``task`` record per
executed task — backend requested and chosen, seed entropy, replication
count, aggregated :class:`~repro.obs.stats.RunStats` — plus a
``fallback`` record per capability degradation observed while resolving.
The journal's first line is always a ``provenance`` record
(:func:`~repro.obs.provenance.capture_provenance`).

Records are flushed line-by-line, so an interrupted campaign leaves a
journal that is truncated but valid up to its last complete line —
``repro-dls stats`` summarises partial journals fine.

Record schema (see ``docs/observability.md`` for the full table):

``{"kind": "provenance", ...}``
    environment snapshot, always the first line.
``{"kind": "task", "technique": ..., "n": ..., "p": ...,
"requested": ..., "backend": ..., "runs": ..., "wall_time_s": ...,
"events": ..., "fast_path_runs": ..., "kernels": {...},
"seed_entropy": [...]}``
    one executed task (all its replications aggregated).
``{"kind": "fallback", "task": ..., "requested": ..., "chosen": ...,
"reason": ...}``
    one capability degradation recorded during backend resolution.
``{"kind": "progress", "done": ..., "total": ..., "elapsed_s": ...,
"events_per_s": ..., "eta_s": ..., "fallbacks": ...}``
    one live-progress heartbeat (:mod:`repro.obs.progress`).
``{"kind": "cache", "op": "hit"|"miss"|"store"|"verify", "key": ...,
"technique": ..., "n": ..., "p": ..., "runs": ...}``
    one result-cache event (:mod:`repro.cache`); hits carry
    ``saved_wall_s`` (the host-seconds the stored computation cost) and
    stores carry ``bytes`` and ``wall_time_s``.
``{"kind": "advise", "best": ..., "techniques": ..., "fallbacks": ...,
"cache_hits": ..., "cache_misses": ..., "elapsed_s": ...}``
    one advisor query (:mod:`repro.serve`), plus the request fields.
``{"kind": "artifact", "artifact": ..., "mode": ..., "files": [...],
"fallbacks": ..., "cache": {...}, "plot": ..., "elapsed_s": ...}``
    one artifact emitted by the figure pipeline (:mod:`repro.figures`).

Every record additionally carries ``t_s`` — seconds since the journal
opened — which lets ``repro-dls trace-export`` reconstruct a campaign
timeline (:func:`repro.obs.timeline.chrome_trace_from_journal`).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from .provenance import capture_provenance

__all__ = [
    "RunJournal",
    "active_journal",
    "clear_journal",
    "journal_to",
    "set_journal",
]


class RunJournal:
    """An append-only JSONL file of run records.

    Opening writes the ``provenance`` record immediately; every
    :meth:`write` flushes, so readers (and crash forensics) always see
    complete lines.
    """

    def __init__(self, path: str | Path, mode: str = "w"):
        self.path = Path(path)
        self._fh = self.path.open(mode)
        self._t0 = time.monotonic()
        self.records_written = 0
        self.write({"kind": "provenance", **capture_provenance()})

    def write(self, record: dict) -> None:
        """Append one record as a single JSON line and flush.

        Records are stamped with ``t_s`` (seconds since the journal
        opened) unless the caller already set one.
        """
        if "t_s" not in record:
            record = {**record, "t_s": round(time.monotonic() - self._t0, 6)}
        self._fh.write(json.dumps(record, sort_keys=False) + "\n")
        self._fh.flush()
        self.records_written += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunJournal {self.path} ({self.records_written} records)>"


_ACTIVE: RunJournal | None = None


def set_journal(journal: RunJournal | str | Path) -> RunJournal:
    """Make ``journal`` (or a new journal at a path) the active sink."""
    global _ACTIVE
    if not isinstance(journal, RunJournal):
        journal = RunJournal(journal)
    _ACTIVE = journal
    return journal


def active_journal() -> RunJournal | None:
    """The journal the runner currently writes to (None = no journal)."""
    return _ACTIVE


def clear_journal() -> None:
    """Deactivate (and close) the active journal, if any."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
        _ACTIVE = None


@contextmanager
def journal_to(path: str | Path) -> Iterator[RunJournal]:
    """Context manager: journal all runs inside the block to ``path``."""
    journal = set_journal(path)
    try:
        yield journal
    finally:
        clear_journal()
