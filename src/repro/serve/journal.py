"""Per-tenant crash-recovery artifacts: journal, snapshot, evict state.

The service keeps **two tiers** of durable state per tenant, mirroring
the paper's two-level BTB hierarchy:

* The *evict tier* rides :mod:`repro.core.state_io` — the BTB2-style
  semi-inclusive save (BTB1/BTB2/CTB only; TAGE, perceptron and other
  aux state are deliberately dropped).  Eviction is lossy by contract:
  a re-warmed tenant predicts a little worse for a while, exactly like
  a line refetched from BTB2.  It never loses *answers*.

* The *crash-recovery tier* is exact.  Every accepted batch is appended
  to the tenant journal **before** it is computed or answered
  (journal-before-respond).  Prediction is deterministic, so replaying
  the journal on top of the last snapshot reproduces the predictor,
  the stats, and the chained stream fingerprint bit for bit — including
  evictions and re-warms, which are journaled too (a save → load round
  trip of identical state is itself deterministic).

Snapshots compact the journal: an atomic pickle of the full warm state
is written first, *then* the journal is rotated down to a fresh header.
A crash between the two steps is benign — recovery skips journal events
at or below the snapshot's sequence number.  A crash mid-append tears
at most the final journal line, which the loader drops: a torn batch
was by construction never answered, so dropping it is the only correct
reading.
"""

from __future__ import annotations

import io
import json
import os
import pickle
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.common.atomic import (
    append_line,
    atomic_write_bytes,
    atomic_write_text,
)
from repro.common.errors import JournalError
from repro.common.jsonl import format_location, iter_jsonl

JOURNAL_SCHEMA = "repro-serve-journal/v1"
SNAPSHOT_SCHEMA = "repro-serve-snapshot/v1"

JOURNAL_EVENT_TYPES = ("batch", "evict", "restore")


class TenantPaths:
    """Where one tenant's durable artifacts live under the spool."""

    def __init__(self, spool_dir: Union[str, Path], tenant: str):
        self.directory = Path(spool_dir) / "tenants" / tenant
        self.journal = self.directory / "journal.jsonl"
        self.snapshot = self.directory / "snapshot.pickle"
        self.evict_state = self.directory / "evict-state.json"

    def ensure(self) -> "TenantPaths":
        self.directory.mkdir(parents=True, exist_ok=True)
        return self

    def exists(self) -> bool:
        return self.journal.exists() or self.snapshot.exists()


def journal_header(tenant: str, config: str, *_retired) -> Dict:
    """A journal's first line.  A third positional argument (the
    predictor backend older callers pass) is accepted and ignored."""
    return {"type": "header", "schema": JOURNAL_SCHEMA, "tenant": tenant,
            "config": config}


class JournalWriter:
    """Append-only, fsync-per-event writer for one tenant journal.

    ``tear_after_bytes`` is the chaos hook: when set, the next append
    writes only that many bytes of its line and hard-kills the process
    — a faithful torn write, the exact artifact a power cut mid-append
    leaves behind.
    """

    def __init__(self, path: Union[str, Path], header: Dict):
        self.path = Path(path)
        self.header = dict(header)
        self.tear_after_bytes: Optional[int] = None
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._stream: Optional[io.TextIOWrapper] = open(
            self.path, "a", encoding="utf-8"
        )
        if fresh:
            self._append_obj(self.header)

    def _append_obj(self, obj: Dict) -> None:
        if self._stream is None:
            raise ValueError("journal writer is closed")
        line = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        if self.tear_after_bytes is not None:
            # Chaos: emulate dying mid-append.  Write a prefix, make it
            # durable so recovery really sees the torn tail, then die
            # the way a crashed process dies — no unwinding, no atexit.
            self._stream.write(line[: self.tear_after_bytes])
            self._stream.flush()
            os.fsync(self._stream.fileno())
            os._exit(70)
        append_line(self._stream, line, fsync=True)

    def append(self, event: Dict) -> None:
        """Durably record one event (fsync before returning)."""
        if event.get("type") not in JOURNAL_EVENT_TYPES:
            raise JournalError(f"unknown journal event {event.get('type')!r}")
        self._append_obj(event)

    def rotate(self) -> None:
        """Compact: replace the journal with a lone header.

        Called *after* the snapshot landed; a crash in between leaves
        stale events recovery skips by sequence number.
        """
        if self._stream is None:
            raise ValueError("journal writer is closed")
        self._stream.close()
        header_line = json.dumps(self.header, sort_keys=True,
                                 separators=(",", ":"))
        atomic_write_text(self.path, header_line + "\n")
        self._stream = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None


def load_journal(
    path: Union[str, Path], strict: bool = False
) -> Tuple[Dict, List[Dict]]:
    """Read one tenant journal: ``(header, events)``.

    The torn final line a crashed writer leaves is dropped (strict mode
    refuses it instead); corruption anywhere else is a real error.
    """
    header: Optional[Dict] = None
    events: List[Dict] = []
    for line_number, offset, obj in iter_jsonl(path, strict=strict,
                                               error=JournalError):
        where = format_location(path, line_number, offset)
        if not isinstance(obj, dict):
            raise JournalError(f"{where}: journal rows must be objects")
        kind = obj.get("type")
        if kind == "header":
            if header is not None:
                raise JournalError(f"{where}: duplicate journal header")
            if obj.get("schema") != JOURNAL_SCHEMA:
                raise JournalError(
                    f"{where}: unsupported journal schema "
                    f"{obj.get('schema')!r} (expected {JOURNAL_SCHEMA!r})"
                )
            header = obj
            continue
        if header is None:
            raise JournalError(f"{where}: journal event before header")
        if kind not in JOURNAL_EVENT_TYPES:
            raise JournalError(f"{where}: unknown journal event {kind!r}")
        if not isinstance(obj.get("seq"), int):
            raise JournalError(f"{where}: journal event without int seq")
        events.append(obj)
    if header is None:
        raise JournalError(f"{path}: journal has no header")
    return header, events


def write_snapshot(path: Union[str, Path], payload: Dict) -> None:
    """Atomically persist one snapshot (pickle: predictors ride along)."""
    payload = dict(payload, schema=SNAPSHOT_SCHEMA)
    atomic_write_bytes(path, pickle.dumps(payload, protocol=4))


def read_snapshot(path: Union[str, Path]) -> Optional[Dict]:
    """Load a snapshot; ``None`` when absent.

    Snapshots are written atomically, so an unreadable one is genuine
    corruption, not a crash artifact — :class:`JournalError`.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        payload = pickle.loads(path.read_bytes())
    except Exception as exc:  # pickle raises a zoo of types
        raise JournalError(f"{path}: unreadable snapshot: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != SNAPSHOT_SCHEMA:
        raise JournalError(
            f"{path}: unsupported snapshot schema "
            f"{payload.get('schema') if isinstance(payload, dict) else None!r}"
        )
    return payload
