"""Content-addressed result cache: in-memory LRU over an on-disk tier.

Entries are keyed by :func:`cache_key` — the SHA-256 of the input term's
canonical serialization combined with
:meth:`~repro.core.config.SynthesisConfig.fingerprint`, the hash of every
config field with sorted keys.  Keys are therefore stable across
processes and sessions: a warm re-run of the whole benchmark suite, even
from a fresh interpreter, finds every entry again.

The value stored is the JSON form of
:meth:`repro.core.pipeline.SynthesisResult.to_dict`.  Layout on disk::

    <directory>/<first two hex chars>/<full 64-char key>.json

Writes go through a temporary file + ``os.replace`` so a crashed or killed
worker driver never leaves a torn entry behind; unreadable entries are
treated as misses and removed, and a write that fails (a full disk) leaves
the entry in the memory tier only.

The disk tier can be bounded in bytes (``max_bytes``, the CLI's
``--cache-max-mb``): when a store pushes it over the limit,
least-recently-used entries are evicted, with
recency approximated by file mtime — cache reads (from either tier) *touch*
their entry, so a hot entry survives even when it was written long ago.
Usage is scanned lazily and maintained incrementally afterwards, and
eviction candidates are drained from the last scan's mtime-ordered queue
(stale candidates — touched since the scan — are skipped, and the queue is
rebuilt only when it runs dry), so puts stay amortized O(1) even at the
cap.

**Semantic tier.**  On top of the exact key sits a second lookup level
keyed by :func:`semantic_cache_key` — the fingerprint of the input term
after the :mod:`repro.lang.normal` pipeline (commutative sorting,
alpha-renaming, numeric-literal unification, affine canonical forms).  A
semantic entry is a *pointer* to an exact entry (on disk: a tiny JSON file
under ``<directory>/sem/``), so the payload is stored once and the exact
tier's behavior — keys, layout, eviction — is completely unchanged.
:meth:`ResultCache.lookup` probes the exact key first and falls back to
the semantic key only on a miss; hits are counted separately
(``exact_hits``/``semantic_hits``).  The caller derives the semantic key
(the service does so only when the exact key is absent, and never under
its lock) and passes it as a string.  A pointer whose exact entry was
evicted simply misses (and is dropped).

**Decoded results.**  A memory-tier entry keeps its payload and, next to
it, the :class:`~repro.core.pipeline.SynthesisResult` decoded from that
payload.  :meth:`ResultCache.put` never decodes: it keeps the result its
caller already holds (the service's, which its worker decoded from the
same payload), or none.  ``lookup(..., decoded=True)`` hands out that one
shared result, decoding the payload the first time an entry without one
is asked for (a disk-tier promotion, say); ``decodes`` counts those.  A
repeated hit therefore parses no candidate.  Every hit on an entry gets
the same object, so no caller may mutate it; terms are immutable,
candidates frozen, and the cached result carries no diagnostics.  A plain
``lookup`` returns the payload dict and decodes nothing.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict, deque
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.core.config import SynthesisConfig
from repro.core.pipeline import SynthesisResult
from repro.lang.canon import fingerprint_text, semantic_fingerprint, term_fingerprint
from repro.lang.term import Term


def cache_key(term: Term, config: SynthesisConfig) -> str:
    """The content-address of a (input term, synthesis config) pair."""
    return fingerprint_text(f"{term_fingerprint(term)}:{config.fingerprint()}")


def semantic_cache_key(term: Term, config: SynthesisConfig) -> str:
    """The content-address modulo semantic normalization (second-level key).

    Same shape as :func:`cache_key` with the exact term fingerprint
    replaced by the normalized one — an input that is already in normal
    form has equal exact and semantic keys, which is harmless because the
    two tiers live in separate namespaces.
    """
    return semantic_fingerprint(term, config)


class _Entry:
    """One memory-tier entry: the payload and the result decoded from it."""

    __slots__ = ("payload", "result")

    def __init__(self, payload: dict, result: Optional[SynthesisResult] = None):
        self.payload = payload
        self.result = result


class ResultCache:
    """Two-tier cache: an LRU dict in memory, sharded JSON files on disk.

    ``directory=None`` disables the disk tier (memory-only cache);
    ``memory_capacity=0`` disables the memory tier (every hit re-reads
    disk).  Hit/miss counters are per-instance: a fresh instance over a
    populated directory starts at zero, which is what lets a warm re-run
    report its own 100% hit rate.

    ``max_bytes`` bounds the disk tier; ``None`` means unbounded.
    Exceeding it evicts entries oldest-mtime-first (reads touch their
    entry, making mtime an LRU clock — see the module docstring).
    """

    def __init__(
        self,
        directory=None,
        memory_capacity: int = 128,
        max_bytes: Optional[int] = None,
    ):
        self.directory = Path(directory) if directory is not None else None
        self.memory_capacity = memory_capacity
        self.max_bytes = max_bytes
        self._memory: "OrderedDict[str, _Entry]" = OrderedDict()
        #: Memory-side semantic pointers: semantic key -> exact key.  An
        #: LRU like the payload tier, but entries are two small strings, so
        #: it can afford a larger capacity.
        self._semantic_memory: "OrderedDict[str, str]" = OrderedDict()
        #: Lazily scanned total bytes of the disk tier's entries; None
        #: until the first operation that needs it.
        self._disk_usage: Optional[int] = None
        #: Eviction candidates from the last scan, oldest mtime first;
        #: entries are verified (and stale ones skipped) before removal.
        self._eviction_queue: deque = deque()
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.exact_hits = 0
        self.semantic_hits = 0
        self.stores = 0
        self.evictions = 0
        #: Payloads decoded into results (see ``lookup(..., decoded=True)``).
        self.decodes = 0

    # -- lookup ---------------------------------------------------------------

    def _probe(self, key: str) -> Optional[_Entry]:
        """Read ``key`` from memory or disk without touching hit/miss totals.

        The memory/disk *origin* counters are maintained here; the caller
        (:meth:`lookup`) decides whether the probe amounts to an exact hit,
        a semantic hit, or a miss.
        """
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            if self._bounded():
                # A memory-tier hit is still a use of the disk entry: keep
                # its mtime (the eviction policy's LRU clock) fresh, or a
                # hot entry would be evicted from disk while being served
                # from memory and then miss in the next process.
                self._touch(self._path(key))
            self.memory_hits += 1
            return entry
        payload = self._read_disk(key)
        if payload is not None:
            entry = _Entry(payload)
            self._remember(key, entry)
            self.disk_hits += 1
            return entry
        return None

    def lookup(
        self,
        key: str,
        semantic_key: Optional[str] = None,
        decoded: bool = False,
    ) -> Tuple[Union[None, dict, SynthesisResult], Optional[str]]:
        """Two-level read: ``(payload, tier)`` with tier ``"exact"``,
        ``"semantic"``, or ``None`` on a miss.

        The exact key is the fast path; the semantic key is consulted only
        when the exact probe misses, so inputs that hit exactly never pay
        the pointer indirection.  ``decoded=True`` returns the entry's shared
        :class:`~repro.core.pipeline.SynthesisResult` instead of its
        payload.
        """
        entry = self._probe(key)
        if entry is not None:
            self.hits += 1
            self.exact_hits += 1
            return self._value(entry, decoded), "exact"
        if semantic_key is not None:
            exact_key = self._resolve_semantic(semantic_key)
            if exact_key is not None:
                entry = self._probe(exact_key)
                if entry is not None:
                    self.hits += 1
                    self.semantic_hits += 1
                    return self._value(entry, decoded), "semantic"
                # Dangling pointer: the exact entry was evicted (or removed
                # as corrupt).  Drop the pointer so the next store rebinds.
                self._drop_semantic(semantic_key)
        self.misses += 1
        return None, None

    def _value(self, entry: _Entry, decoded: bool) -> Union[dict, SynthesisResult]:
        """The entry's payload, or its result, decoded now if it has none."""
        if not decoded:
            return entry.payload
        if entry.result is None:
            entry.result = SynthesisResult.from_dict(entry.payload)
            self.decodes += 1
        return entry.result

    def put(
        self,
        key: str,
        payload: dict,
        semantic_key: Optional[str] = None,
        result: Optional[SynthesisResult] = None,
    ) -> None:
        """Store ``payload`` under ``key`` in both tiers.

        With a ``semantic_key``, additionally bind that key to ``key`` so
        semantically equal inputs find this entry.
        ``result``, when given, must be ``SynthesisResult.from_dict(payload)``
        (the caller's own decode of it): the memory tier keeps it, so a hit
        decodes nothing.  ``put`` itself never decodes.
        """
        self._remember(key, _Entry(payload, result))
        self._write_disk(key, payload)
        self.stores += 1
        if semantic_key is not None:
            self._remember_semantic(semantic_key, key)
            self._write_semantic(semantic_key, key)

    def __contains__(self, key: str) -> bool:
        """Presence check that does not touch the hit/miss counters."""
        if key in self._memory:
            return True
        path = self._path(key)
        return path is not None and path.exists()

    # -- tiers ----------------------------------------------------------------

    def _remember(self, key: str, entry: _Entry) -> None:
        if self.memory_capacity <= 0:
            return
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_capacity:
            self._memory.popitem(last=False)

    def _path(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / key[:2] / f"{key}.json"

    # -- semantic tier ---------------------------------------------------------

    def _semantic_path(self, semantic_key: str) -> Optional[Path]:
        """Disk location of a semantic pointer file.

        Pointers live one level deeper than payload entries
        (``sem/<shard>/<key>.json`` is three components below the cache
        directory, payloads are two), so the exact tier's ``*/*.json``
        globs — usage scan, eviction, ``disk_entries`` — never see them and
        the bounded-cache accounting is byte-for-byte what it was before
        the semantic tier existed.
        """
        if self.directory is None:
            return None
        return self.directory / "sem" / semantic_key[:2] / f"{semantic_key}.json"

    def _remember_semantic(self, semantic_key: str, exact_key: str) -> None:
        if self.memory_capacity <= 0:
            return
        self._semantic_memory[semantic_key] = exact_key
        self._semantic_memory.move_to_end(semantic_key)
        # Pointers are two short strings; keep more of them than payloads.
        while len(self._semantic_memory) > self.memory_capacity * 8:
            self._semantic_memory.popitem(last=False)

    def _resolve_semantic(self, semantic_key: str) -> Optional[str]:
        """The exact key a semantic key points at, or None."""
        exact_key = self._semantic_memory.get(semantic_key)
        if exact_key is not None:
            self._semantic_memory.move_to_end(semantic_key)
            return exact_key
        path = self._semantic_path(semantic_key)
        if path is None or not path.exists():
            return None
        try:
            exact_key = json.loads(path.read_text())["key"]
        except (OSError, ValueError, TypeError, KeyError):
            self._drop_semantic(semantic_key)
            return None
        if not isinstance(exact_key, str):
            self._drop_semantic(semantic_key)
            return None
        self._remember_semantic(semantic_key, exact_key)
        return exact_key

    def _write_semantic(self, semantic_key: str, exact_key: str) -> None:
        path = self._semantic_path(semantic_key)
        if path is not None:
            self._write_atomic(path, json.dumps({"key": exact_key}))

    def _drop_semantic(self, semantic_key: str) -> None:
        self._semantic_memory.pop(semantic_key, None)
        path = self._semantic_path(semantic_key)
        if path is not None:
            try:
                path.unlink()
            except OSError:
                pass

    def _read_disk(self, key: str) -> Optional[dict]:
        path = self._path(key)
        if path is None or not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            # A torn or corrupt entry is as good as absent; drop it so the
            # slot can be rewritten cleanly.
            self._drop_entry(path)
            return None
        # Touch the entry: mtime is the eviction policy's LRU clock, so a
        # read must refresh recency just like the memory tier does.
        self._touch(path)
        return payload

    @staticmethod
    def _touch(path: Optional[Path]) -> None:
        if path is None:
            return
        try:
            os.utime(path)
        except OSError:
            pass

    @staticmethod
    def _write_atomic(path: Path, text: str) -> bool:
        """Write ``text`` to ``path`` via a temp file and a rename.

        A failed write (e.g. ENOSPC on a full disk) is not an error for the
        caller: the entry simply stays memory-only, like a read that fails
        is a miss.  Returns False then, with the temp file removed.
        """
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        return True

    def _write_disk(self, key: str, payload: dict) -> None:
        path = self._path(key)
        if path is None:
            return
        text = json.dumps(payload)
        old_size = None
        try:
            old_size = path.stat().st_size
        except OSError:
            pass
        if not self._write_atomic(path, text):
            return
        if self._disk_usage is not None:
            # An overwrite replaces the old payload: account the delta, or
            # the byte budget silently drifts from reality.
            self._disk_usage += len(text.encode()) - (old_size or 0)
        self._evict_disk()

    # -- disk-tier eviction ----------------------------------------------------

    def _bounded(self) -> bool:
        return self.directory is not None and self.max_bytes is not None

    def _ensure_usage(self) -> int:
        if self._disk_usage is None:
            used = 0
            if self.directory is not None and self.directory.exists():
                for path in self.directory.glob("*/*.json"):
                    try:
                        used += path.stat().st_size
                    except OSError:
                        continue
            self._disk_usage = used
        return self._disk_usage

    def _over_limit(self) -> bool:
        return self._ensure_usage() > self.max_bytes

    def _rescan_disk(self) -> None:
        """Rebuild usage and the eviction queue from the directory.

        Also re-seeds usage, because another process may have written
        entries this instance never accounted for.
        """
        candidates = []
        for path in self.directory.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            candidates.append((stat.st_mtime, str(path), stat.st_size))
        candidates.sort()
        self._eviction_queue = deque(candidates)
        self._disk_usage = sum(size for _, _, size in candidates)

    def _next_victim(self) -> Optional[Path]:
        """The oldest still-valid queued candidate, or None when dry.

        A candidate whose mtime moved since the scan was *used* in the
        meantime — it is hot now, so it is skipped until the next rescan
        re-ranks it.
        """
        while self._eviction_queue:
            mtime, path_text, _size = self._eviction_queue.popleft()
            path = Path(path_text)
            try:
                stat = path.stat()
            except OSError:
                continue  # already gone; a rescan will fix the usage count
            if stat.st_mtime != mtime:
                continue
            return path
        return None

    def _evict_disk(self) -> None:
        """Drop least-recently-used entries until within the byte budget.

        Candidates drain from the last scan's queue (one stat per eviction)
        so steady-state puts at the cap stay amortized O(1); the full
        glob+stat rescan runs only when the queue is dry.
        """
        if not self._bounded() or not self._over_limit():
            return
        rescanned = False
        while self._over_limit():
            victim = self._next_victim()
            if victim is None:
                if rescanned:
                    break
                self._rescan_disk()
                rescanned = True
                continue
            if self._drop_entry(victim):
                self.evictions += 1

    def _drop_entry(self, path: Path) -> bool:
        """Unlink a disk entry, keeping the usage accounting in step.

        Every removal — eviction or a corrupt entry dropped on read — must
        go through here, or the tracked usage drifts high and later puts
        evict healthy entries that are actually within the limits.
        """
        size = 0
        try:
            size = path.stat().st_size
        except OSError:
            pass
        try:
            path.unlink()
        except OSError:
            return False
        if self._disk_usage is not None:
            self._disk_usage = max(self._disk_usage - size, 0)
        return True

    # -- statistics -----------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Fraction of :meth:`lookup` calls served from either tier (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def disk_entries(self) -> int:
        """Number of entries currently persisted on disk."""
        if self.directory is None or not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))

    def stats(self) -> Dict[str, object]:
        """A JSON-able counter snapshot (what batch reports embed)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "exact_hits": self.exact_hits,
            "semantic_hits": self.semantic_hits,
            "stores": self.stores,
            "evictions": self.evictions,
            "decodes": self.decodes,
            "hit_rate": self.hit_rate,
            "memory_entries": len(self._memory),
            "disk_entries": self.disk_entries(),
            "max_bytes": self.max_bytes,
            "directory": str(self.directory) if self.directory is not None else None,
        }
