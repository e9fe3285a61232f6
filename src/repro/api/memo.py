"""The session-level result store: an LRU memo with an optional disk tier.

:class:`ResultMemo` memoizes whole :class:`~repro.api.protocol.EvalResult`
objects under the session's coalescing key.  A seeded evaluation is
deterministic, so a stored result answers every later request with the same
key whose levels it covers — on any backend that declares itself
``cacheable`` (vectorized, chip and board; never the reference loop).

With ``cache_dir`` set, every stored result is also written to disk as one
plain ``.npz`` file (no pickling), named by the SHA-256 of the key, so
sessions in other processes — worker children, a restarted replica, a
second replica sharing the directory — are served from it too.  The disk
tier keeps the guarantees of an append-mostly cache shared by processes:

* writes go to a temporary file followed by an atomic ``os.replace``, so a
  concurrent reader sees either nothing or a complete entry;
* each file records the key it was written under, and a read checks it: a
  torn, corrupt, or foreign entry is a miss, never an error;
* with ``max_bytes`` set, every write evicts least-recently-used entries
  (oldest mtime first; reads refresh the mtime) until the directory fits,
  and the newest entry always survives.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
import zipfile
import zlib
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.protocol import EvalRequest, EvalResult

#: Array fields of an :class:`EvalResult` (``spike_counters`` is optional).
_ARRAY_FIELDS = ("scores", "accuracy", "labels", "class_neuron_counts", "cores")

#: What a missing, torn, truncated, or garbage ``.npz`` file raises on load
#: (``FileNotFoundError`` is an ``OSError``).
_CORRUPT_ENTRY_ERRORS = (
    KeyError,
    ValueError,
    OSError,
    EOFError,
    zipfile.BadZipFile,
    zlib.error,
)


def _covers(
    result: EvalResult, copy_levels: Sequence[int], spf_levels: Sequence[int]
) -> bool:
    return set(copy_levels) <= set(result.copy_levels) and set(spf_levels) <= set(
        result.spf_levels
    )


def _freeze(result: EvalResult) -> EvalResult:
    """Make every array of ``result`` read-only.

    Stored results are handed out by reference (sliced hits share
    ``labels``, ``class_neuron_counts`` and ``spike_counters``), so a caller
    writing into one must fail instead of poisoning later hits.
    """
    for name in _ARRAY_FIELDS + ("spike_counters",):
        array = getattr(result, name)
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return result


class ResultMemo:
    """Thread-safe LRU store of :class:`EvalResult` by coalescing key.

    One entry per coalescing key, holding the *widest* union result seen
    for that key.  A lookup hits when the stored result's level grids cover
    every level the request asks for — the slice served off it is then
    bit-identical to a fresh evaluation, by the same nested-prefix argument
    that makes coalescing exact (the key pins the grid maxima, the seed, and
    every behavioural flag).  Requests with ``seed=None`` have no coalescing
    key and therefore are never stored — fresh entropy stays fresh.

    Args:
        max_entries: results kept in memory (least recently used dropped).
        cache_dir: optional directory of the disk tier (see the module
            docstring); ``None`` keeps results in memory only.
        max_bytes: optional size bound of ``cache_dir`` (mtime-LRU).
    """

    def __init__(
        self,
        max_entries: int = 256,
        cache_dir: Optional[str] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if max_bytes is not None and cache_dir is None:
            raise ValueError("max_bytes bounds the disk tier; set cache_dir too")
        self.max_entries = max_entries
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.max_bytes = max_bytes
        if self.cache_dir is not None:
            os.makedirs(self.cache_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, EvalResult]" = (
            OrderedDict()
        )  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock

    def lookup(self, key: Tuple, request: EvalRequest) -> Optional[EvalResult]:
        """The stored result covering ``request``'s levels, or ``None``.

        Returns the stored union result (covering at least the requested
        levels) — the caller slices the request's sub-grid out of it.  A
        memory miss falls through to the disk tier, whose entry is then
        kept in memory as well.
        """
        with self._lock:
            stored = self._entries.get(key)
            if stored is None:
                stored = self._read(key)
                if stored is not None:
                    self._entries[key] = stored
                    self._evict()
            if stored is not None and _covers(
                stored, request.copy_levels, request.spf_levels
            ):
                self._entries.move_to_end(key)
                self.hits += 1
                return stored
            self.misses += 1
            return None

    def store(self, key: Tuple, result: EvalResult) -> None:
        """Store ``result`` under ``key``, keeping a wider stored one."""
        _freeze(result)
        with self._lock:
            stored = self._entries.get(key)
            if stored is None:
                stored = self._read(key)
            if stored is not None and _covers(
                stored, result.copy_levels, result.spf_levels
            ):
                result = stored
            elif self.cache_dir is not None:
                self._write(key, result)
            self._entries[key] = result
            self._entries.move_to_end(key)
            self._evict()

    def _evict(self) -> None:
        """Drop least-recently-used memory entries past ``max_entries``.

        Called with ``_lock`` held.
        """
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> Dict[str, object]:
        """The ``/metrics`` view of the store."""
        with self._lock:
            hits, misses = self.hits, self.misses
            entries = len(self._entries)
        return {
            "entries": entries,
            "max_entries": self.max_entries,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if (hits + misses) else None,
        }

    # ------------------------------------------------------------------
    # disk tier
    # ------------------------------------------------------------------
    def _path(self, key: Tuple) -> str:
        assert self.cache_dir is not None
        digest = hashlib.sha256(repr(key).encode()).hexdigest()
        return os.path.join(self.cache_dir, f"result-{digest}.npz")

    def _read(self, key: Tuple) -> Optional[EvalResult]:
        """The disk entry stored under ``key``, or ``None`` (also when torn,
        corrupt, or written under another key)."""
        if self.cache_dir is None:
            return None
        path = self._path(key)
        try:
            entry = np.load(path, allow_pickle=False)
            if not isinstance(entry, np.lib.npyio.NpzFile):
                return None
            with entry:
                if str(entry["key"]) != repr(key):
                    return None
                files = set(entry.files)
                result = EvalResult(
                    backend=str(entry["backend"]),
                    copy_levels=tuple(int(c) for c in entry["copy_levels"]),
                    spf_levels=tuple(int(s) for s in entry["spf_levels"]),
                    scores=entry["scores"],
                    accuracy=entry["accuracy"],
                    labels=entry["labels"],
                    class_neuron_counts=entry["class_neuron_counts"],
                    cores=entry["cores"],
                    seed=int(entry["seed"]) if "seed" in files else None,
                    repeats=int(entry["repeats"]),
                    spike_counters=(
                        entry["spike_counters"] if "spike_counters" in files else None
                    ),
                )
        except _CORRUPT_ENTRY_ERRORS:
            # A missing entry is a plain miss.  A torn or corrupt one (e.g. a
            # crash between write and fsync) is one too: the caller
            # recomputes and the store overwrites it.
            return None
        try:
            # Touch the entry so mtime-LRU pruning treats it as recent.
            os.utime(path)
        except OSError:
            pass
        return _freeze(result)

    def _write(self, key: Tuple, result: EvalResult) -> None:
        """Atomically write ``result`` as the disk entry of ``key``."""
        assert self.cache_dir is not None
        arrays = {name: getattr(result, name) for name in _ARRAY_FIELDS}
        arrays["key"] = np.asarray(repr(key))
        arrays["backend"] = np.asarray(result.backend)
        arrays["copy_levels"] = np.asarray(result.copy_levels, dtype=np.int64)
        arrays["spf_levels"] = np.asarray(result.spf_levels, dtype=np.int64)
        arrays["repeats"] = np.asarray(result.repeats, dtype=np.int64)
        if result.seed is not None:
            arrays["seed"] = np.asarray(result.seed, dtype=np.int64)
        if result.spike_counters is not None:
            arrays["spike_counters"] = result.spike_counters
        handle, tmp_path = tempfile.mkstemp(
            dir=self.cache_dir, prefix=".tmp-result-", suffix=".npz"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                np.savez_compressed(stream, **arrays)
            os.replace(tmp_path, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        if self.max_bytes is not None:
            self.prune()

    def prune(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used disk entries until the tier fits.

        Args:
            max_bytes: size bound to enforce; defaults to the instance's
                ``max_bytes`` (a no-op when neither is set).

        Returns:
            number of bytes freed.  Entries are removed oldest-mtime first
            (reads refresh mtime, so this is LRU); the most recent entry is
            always kept.  Races with concurrent writers/readers are benign:
            a vanished file is skipped, and an evicted entry is simply a
            future miss.
        """
        limit = self.max_bytes if max_bytes is None else max_bytes
        if limit is None or self.cache_dir is None:
            return 0
        entries: List[Tuple[float, int, str]] = []
        for name in os.listdir(self.cache_dir):
            if not (name.startswith("result-") and name.endswith(".npz")):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest mtime first
        total = sum(size for _, size, _ in entries)
        freed = 0
        for _, size, path in entries[:-1]:  # never evict the newest entry
            if total <= limit:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            freed += size
        return freed
