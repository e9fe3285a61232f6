"""Append-only on-disk journal of admitted request fingerprints.

The serve tier's durability spine: every *admitted* wire request whose
seed is an integer (i.e. every request that is deterministic and therefore
cache-servable) is appended to a journal file as one JSON line::

    {"fingerprint": "<sha256 of the canonical wire payload>",
     "recorded_at": <wall-clock seconds>,
     "request": {<normalized wire payload>}}

A restarted server replays the journal at boot: each unique fingerprint is
re-evaluated through a warming session, which loads the result store's
disk entries (with ``cache_dir`` set) into memory and recomputes anything
the killed server admitted but never finished — so a repeated burst after
the restart is answered from the store instead of recomputed, and with a
disk tier the warm-up itself costs no engine pass (the kill-and-restart
soak asserts both).

Crash consistency is line-granular: every record is written and flushed as
one line, so the journal a killed process leaves behind is readable up to
(at worst) one torn final line, which :meth:`RequestJournal.replay`
silently skips — a torn record means the request was mid-admission, and
re-serving it after restart is exactly a fresh request.

Integrity is *recomputed*, never trusted: a journal line's stored
``fingerprint`` is only honoured when it equals
``request_fingerprint(request)`` recomputed from the line's own payload.
A corrupted-but-parseable line (bit rot, a partial overwrite that still
decodes, an edited file) would otherwise poison the replay dedup map — or
warm the wrong stored result under a valid fingerprint — so mismatches are
skipped exactly like torn lines.

Growth is bounded by boot-time compaction: a repeated burst appends one
line per admission, so a long-lived journal is dominated by duplicate
fingerprints.  :meth:`RequestJournal.compact` (the server runs it after
the boot-time warm replay) rewrites the file down to its oldest record per
unique fingerprint via an atomic rename, so the file size tracks the
number of *distinct* requests, not total traffic.  At runtime the journal
holds one persistent append handle (opening the file per record was a
measurable syscall tax under bursts) and an in-memory fingerprint index,
so ``len(journal)`` never re-reads the file.

Clock discipline: ``recorded_at`` is **wall-clock** (``time.time``) —
journal records are externally meaningful and must survive process
restarts, which monotonic readings do not.  It is never differenced
against any monotonic timestamp (see :mod:`repro.serve.admission`).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Set, TextIO, Tuple


def request_fingerprint(payload: Dict[str, object]) -> str:
    """SHA-256 of the canonical (sorted-key) JSON form of a wire payload.

    Two payloads that normalize to the same wire request — regardless of
    key order or which defaulted fields were spelled out by the client —
    produce the same fingerprint, so journal replay deduplicates repeated
    bursts down to unique evaluations.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RequestJournal:
    """One append-only journal file of admitted request fingerprints.

    Safe to share across the HTTP threads of one service instance (appends
    are serialized by a lock and flushed per record); *not* meant to be
    shared by several live server processes — each serves its own journal,
    as each owns its admission queue.
    """

    def __init__(
        self, path: str, wall_clock: Callable[[], float] = time.time
    ) -> None:
        self.path = str(path)
        self._wall_clock = wall_clock
        self._lock = threading.Lock()
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self.recorded = 0  # guarded-by: _lock
        self._handle: Optional[TextIO] = None  # guarded-by: _lock
        #: unique fingerprints on disk; None until first read (lazy).
        self._index: Optional[Set[str]] = None  # guarded-by: _lock

    # ------------------------------------------------------------------
    # producer side (the admission path)
    # ------------------------------------------------------------------
    def record(self, payload: Dict[str, object]) -> str:
        """Append one admitted wire payload; returns its fingerprint.

        The record is flushed to the OS before returning, so a server
        killed right after admitting a request still leaves its
        fingerprint behind for the restart to warm from.  The append goes
        through one persistent handle held for the journal's lifetime —
        reopening the file per record cost a path lookup and an open/close
        syscall pair on every admission.
        """
        fingerprint = request_fingerprint(payload)
        line = json.dumps(
            {
                "fingerprint": fingerprint,
                "recorded_at": self._wall_clock(),
                "request": payload,
            },
            sort_keys=True,
        )
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()
            self.recorded += 1
            if self._index is not None:
                self._index.add(fingerprint)
        return fingerprint

    def close(self) -> None:
        """Release the persistent append handle (records stay readable).

        Idempotent; a journal abandoned without ``close()`` loses nothing
        — every record was flushed when written — this only returns the
        file descriptor eagerly instead of waiting for GC.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    # ------------------------------------------------------------------
    # consumer side (boot-time replay)
    # ------------------------------------------------------------------
    def _scan(self) -> Tuple[Dict[str, Dict[str, object]], int]:
        """``(oldest validated record per fingerprint, total lines read)``.

        A record only counts when it parses, has the right shape, *and*
        its stored fingerprint equals one recomputed from its ``request``
        payload — stored fingerprints are never trusted (see the module
        docstring).  Anything else is skipped, never fatal.
        """
        records: Dict[str, Dict[str, object]] = {}
        lines = 0
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    lines += 1
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if not isinstance(record, dict):
                        continue
                    fingerprint = record.get("fingerprint")
                    request = record.get("request")
                    if not isinstance(fingerprint, str) or not isinstance(
                        request, dict
                    ):
                        continue
                    if request_fingerprint(request) != fingerprint:
                        continue
                    records.setdefault(fingerprint, record)
        except FileNotFoundError:
            return {}, 0
        return records, lines

    def replay(self) -> List[Dict[str, object]]:
        """Unique journaled wire payloads, oldest first.

        Deduplicates by fingerprint (a repeated burst journals many lines
        but warms one evaluation) and skips unreadable or
        fingerprint-mismatched lines — at worst the torn final line of a
        killed writer, but any corrupt record degrades to "not warmed",
        never to a boot failure or a poisoned dedup entry.
        """
        records, _ = self._scan()
        with self._lock:
            self._index = set(records)
        payloads: List[Dict[str, object]] = []
        for record in records.values():
            request = record["request"]
            assert isinstance(request, dict)
            payloads.append(request)
        return payloads

    def compact(self) -> int:
        """Rewrite the file down to its oldest record per fingerprint.

        Returns the number of duplicate/corrupt lines dropped.  The
        rewrite is atomic (temp file + ``os.replace``), so a crash during
        compaction leaves either the old journal or the compacted one,
        never a torn hybrid.  The server runs this at boot right after
        the warm replay — the one moment the whole file was just read
        anyway and no appender is active yet.
        """
        with self._lock:
            records, lines = self._scan()
            if not lines:
                return 0
            dropped = lines - len(records)
            if dropped <= 0:
                self._index = set(records)
                return 0
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            tmp_path = f"{self.path}.compact.{os.getpid()}"
            with open(tmp_path, "w", encoding="utf-8") as handle:
                for record in records.values():
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
            self._index = set(records)
            return dropped

    def __len__(self) -> int:
        """Number of unique fingerprints currently replayable.

        Served from the in-memory index (populated lazily from one file
        read, then maintained by :meth:`record`) — earlier versions
        re-read and re-parsed the whole journal on every call.
        """
        with self._lock:
            if self._index is None:
                records, _ = self._scan()
                self._index = set(records)
            return len(self._index)

    def snapshot(self) -> Dict[str, object]:
        """The ``/metrics`` view of this journal."""
        with self._lock:
            recorded = self.recorded
            unique = None if self._index is None else len(self._index)
        try:
            size_bytes: Optional[int] = os.stat(self.path).st_size
        except OSError:
            size_bytes = None
        return {
            "path": self.path,
            "recorded": recorded,
            "unique_fingerprints": unique,
            "size_bytes": size_bytes,
        }
