"""Pluggable persistence backends for the tuning cache.

:class:`repro.autotune.cache.TuningCache` used to *be* its persistence: one
JSON file, re-parsed and rewritten whole under a coarse ``flock`` on every
cold put (O(entries) on the hot path), whose read-merge-write save could
resurrect entries a concurrent ``prune()`` had just deleted.  This module
extracts persistence behind the :class:`CacheStore` interface so the hot
path, the locking granularity, and the prune semantics are properties of a
*backend*, selected by URI:

``PATH.json`` (or ``json:PATH``)
    :class:`JsonFileStore` — the legacy version-2 single-file format, kept
    for compatibility.  Saves now overlay only the keys *this* instance
    wrote (never its whole in-memory mirror) and honour on-disk tombstones,
    so a concurrent prune can no longer be undone by a racing writer.
``dir:PATH`` (or an existing directory)
    :class:`ShardedStore` — one file per fingerprint under a two-hex-char
    fanout directory.  ``put`` writes exactly one entry file (O(1), never
    reading or rewriting other entries) under a per-shard lock; ``prune``
    unlinks individual files, so it is prune-safe by construction.
``log:PATH`` (or ``PATH.jsonl`` / ``PATH.log``)
    :class:`AppendLogStore` — append-only JSONL with an in-memory offset
    index, crash-truncated-tail recovery, and size-triggered *rotation* into
    immutable sealed segments that a background merge folds without ever
    blocking appends, for high-churn server workloads.  Sealed segments can
    be shipped between servers and ingested on the other side (the fleet
    replication primitive).

``open_store`` maps a URI/path to a backend, ``migrate_store`` converts any
backend into any other preserving insertion order (``prune``'s notion of
"oldest" survives migration), and every backend reports its identity and
backend-specific gauges through ``stats()["backend"]`` et al.

Stores are safe against concurrent *processes* via ``fcntl`` advisory locks
(with a warn-once degradation where ``fcntl`` is missing); *thread* safety
is provided one level up by the :class:`TuningCache` facade's mutex.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.utils.durable import (
    append_jsonl,
    atomic_write_text,
    dump_jsonl,
    file_lock,
    scan_jsonl,
)

#: version 2: entry file order is insertion order (prune's "oldest"); files
#: written by version 1 (key-sorted) are discarded as a cold cache rather
#: than mis-pruned
CACHE_VERSION = 2

#: format version of the sharded directory layout (``store.json`` marker)
SHARDED_STORE_VERSION = 1

StorePath = Union[str, os.PathLike]

#: stats fields every backend (plus the facade's counters) reports; anything
#: else in a stats payload is a backend-specific gauge
CACHE_STATS_COMMON_FIELDS = ("backend", "entries", "bytes", "hits", "misses")


def ordered_cache_stats(stats: Mapping[str, Any]) -> Iterator[Tuple[str, Any]]:
    """A cache-stats payload as (field, value) pairs in render order.

    Common fields first (in their documented order), then the backend's own
    gauges sorted by name — so a ``dir:`` store shows its ``shards`` and a
    ``log:`` store its ``segments``/``compactions`` without the consumer
    hard-coding either.  Shared by both CLIs and the service wire docs.
    """
    for name in CACHE_STATS_COMMON_FIELDS:
        if name in stats:
            yield name, stats[name]
    for name in sorted(stats):
        if name not in CACHE_STATS_COMMON_FIELDS:
            yield name, stats[name]


def _bytes_of(*paths: Path) -> int:
    """Total size of the files among ``paths`` that exist."""
    total = 0
    for path in paths:
        try:
            total += path.stat().st_size
        except OSError:
            pass
    return total


def _unlink_quietly(path: Path) -> bool:
    """Remove ``path``; ``False`` when it could not be (already gone, not ours)."""
    try:
        path.unlink()
        return True
    except OSError:
        return False


class CacheStore:
    """Interface every tuning-result store backend implements.

    Keys are opaque strings (in practice SHA-256 fingerprints), values are
    JSON-serialisable dicts.  ``scan`` yields entries in *insertion order* —
    the order ``prune`` treats as oldest-first and ``migrate_store``
    preserves across backends.  Implementations must keep ``put`` durable
    against a crash mid-write (atomic replace or append) and safe against
    concurrent processes sharing the same location.
    """

    #: short backend identifier reported by ``stats()["backend"]``
    backend: str = "abstract"

    #: filesystem anchor (file or directory), ``None`` for in-memory stores
    path: Optional[Path] = None

    @property
    def uri(self) -> Optional[str]:
        """Canonical spec string that re-opens this store (``None`` = memory)."""
        raise NotImplementedError

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def put(self, key: str, value: Mapping[str, Any]) -> None:
        raise NotImplementedError

    def scan(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Every (key, value) pair, oldest insertion first."""
        raise NotImplementedError

    def prune(self, max_entries: int) -> int:
        """Drop the oldest entries beyond ``max_entries``; the count dropped."""
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        """At least ``backend``, ``entries`` and ``bytes``, plus backend gauges."""
        raise NotImplementedError

    def compact(self) -> Dict[str, Any]:
        """Reclaim dead space; a dict describing what was reclaimed."""
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None


class MemoryStore(CacheStore):
    """Process-local dict — the ``path=None`` cache of one-shot sessions."""

    backend = "memory"

    def __init__(self) -> None:
        self._entries: Dict[str, Dict[str, Any]] = {}

    @property
    def uri(self) -> Optional[str]:
        return None

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return self._entries.get(key)

    def put(self, key: str, value: Mapping[str, Any]) -> None:
        self._entries[key] = dict(value)

    def scan(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        yield from list(self._entries.items())

    def prune(self, max_entries: int) -> int:
        drop = len(self._entries) - max_entries
        if drop <= 0:
            return 0
        for key in list(self._entries)[:drop]:
            del self._entries[key]
        return drop

    def stats(self) -> Dict[str, Any]:
        return {"backend": self.backend, "entries": len(self._entries), "bytes": 0}

    def compact(self) -> Dict[str, Any]:
        return {}

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


class JsonFileStore(CacheStore):
    """The legacy single-JSON-file format (version 2), made prune-safe.

    The whole store is one ``{"version", "entries", "tombstones"}`` document;
    a warm open is one parse, and ``get`` serves from the in-memory mirror.
    The historical race: an instance's save used to read-merge-write its
    *entire* mirror over the file, so a writer that loaded before a
    concurrent ``prune()`` resurrected every pruned entry on its next put.
    Two changes make that structurally impossible:

    * a save only overlays the keys this instance actually wrote since its
      last sync (the *dirty* set) — never the whole mirror;
    * ``prune`` records the dropped keys as tombstones inside the same
      locked write, and every later save drops tombstoned keys from its own
      mirror (unless it deliberately re-put them, which also clears the
      tombstone).

    Tombstones are capped at :data:`MAX_TOMBSTONES` (newest kept) so the
    file cannot grow without bound; the field is ignored by version-2
    readers that predate it.
    """

    backend = "json"

    #: upper bound on persisted tombstones (newest survive the cap)
    MAX_TOMBSTONES = 4096

    def __init__(self, path: StorePath) -> None:
        self.path = Path(path)
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._dirty: set = set()
        self._tombstone_count = 0
        if self.path.exists():
            self._entries, tombstones = self._read()
            self._tombstone_count = len(tombstones)

    @property
    def uri(self) -> Optional[str]:
        return str(self.path)

    def _read(self) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, int]]:
        """The on-disk (entries, tombstones); a bad file reads as cold."""
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            # A missing or corrupt file means a cold cache, not a crash.
            return {}, {}
        if not isinstance(payload, dict) or payload.get("version") != CACHE_VERSION:
            return {}, {}
        entries = payload.get("entries", {})
        tombstones = payload.get("tombstones", {})
        if not isinstance(entries, dict):
            entries = {}
        if not isinstance(tombstones, dict):
            tombstones = {}
        return (
            {str(k): dict(v) for k, v in entries.items()},
            {str(k): int(v) for k, v in tombstones.items()},
        )

    def _write(
        self, entries: Dict[str, Dict[str, Any]], tombstones: Dict[str, int]
    ) -> None:
        if len(tombstones) > self.MAX_TOMBSTONES:
            newest = sorted(tombstones, key=tombstones.__getitem__)[-self.MAX_TOMBSTONES:]
            tombstones = {k: tombstones[k] for k in newest}
        payload: Dict[str, Any] = {"version": CACHE_VERSION, "entries": entries}
        if tombstones:
            payload["tombstones"] = tombstones
        # No sort_keys: entry insertion order must survive the round-trip —
        # prune() defines "oldest" by it.
        atomic_write_text(self.path, json.dumps(payload, indent=1))
        self._tombstone_count = len(tombstones)

    def _lock_path(self) -> Path:
        return self.path.with_name(self.path.name + ".lock")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return self._entries.get(key)

    def put(self, key: str, value: Mapping[str, Any]) -> None:
        self._entries[key] = dict(value)
        self._dirty.add(key)
        self._sync()

    def _overlaid(self, disk_entries: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
        """``disk_entries`` under the keys this instance wrote since its last sync."""
        merged = dict(disk_entries)
        for key in self._entries:
            if key in self._dirty:
                merged[key] = self._entries[key]
        return merged

    def _sync(self) -> None:
        """Persist this instance's dirty keys, under the exclusive file lock.

        The merge base is the *current* on-disk state, so entries other
        processes persisted since our load are kept; only our dirty keys are
        overlaid on top (our writes win for those keys, nothing else of our
        mirror touches the file).  On-disk tombstones for keys we did not
        re-put are applied to our mirror, converging it with concurrent
        prunes instead of resurrecting their victims.
        """
        with file_lock(self._lock_path()):
            disk_entries, tombstones = self._read()
            for key in tombstones:
                if key not in self._dirty:
                    self._entries.pop(key, None)
            merged = self._overlaid(disk_entries)
            tombstones = {k: v for k, v in tombstones.items() if k not in self._dirty}
            self._write(merged, tombstones)
            # Adopt other processes' entries (and drop anything that vanished
            # from disk) so this mirror serves warm hits for the whole file.
            self._entries = merged
            self._dirty.clear()

    def scan(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        yield from self._overlaid(self._read()[0]).items()

    def prune(self, max_entries: int) -> int:
        now = time.time_ns()
        with file_lock(self._lock_path()):
            disk_entries, tombstones = self._read()
            merged = self._overlaid(disk_entries)
            drop = max(0, len(merged) - max_entries)
            if drop:
                for key in list(merged)[:drop]:
                    del merged[key]
                    tombstones[key] = now
                self._write(merged, tombstones)
            self._entries = merged
            self._dirty.clear()
            return drop

    def stats(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "entries": len(self._entries),
            "bytes": _bytes_of(self.path),
            "tombstones": self._tombstone_count,
        }

    def compact(self) -> Dict[str, Any]:
        """Drop every persisted tombstone (entries are already compact)."""
        with file_lock(self._lock_path()):
            entries, tombstones = self._read()
            removed = len(tombstones)
            if removed:
                self._write(entries, {})
            return {"tombstones_removed": removed}

    def clear(self) -> None:
        with file_lock(self._lock_path()):
            self._write({}, {})
            self._entries.clear()
            self._dirty.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


class ShardedStore(CacheStore):
    """One file per fingerprint under a two-hex-char fanout directory.

    ``put`` creates exactly one entry file (atomic temp + rename under that
    shard's lock) and never reads or rewrites any other entry — O(1)
    whatever the store holds.  ``prune`` unlinks individual entry files, so
    a concurrent writer cannot resurrect a pruned entry: its save touches
    only its own file.  Insertion order is a monotonic per-entry ``seq``
    stamped into each file (wall-clock nanoseconds, forced strictly
    increasing within a process), which ``scan``/``prune`` sort by.

    Liveness on multi-server NFS mounts: every sidecar lock is taken with
    age-based stale takeover (see :func:`repro.utils.durable.file_lock`) — a
    peer server that died mid-write cannot wedge a shard forever.  ``stale_after``
    tunes the takeover age (seconds; ``None`` restores wait-forever);
    takeovers are counted in ``stats()["lock_takeovers"]``.
    """

    backend = "sharded"

    #: root marker file naming the layout version
    META_NAME = "store.json"

    #: seconds of sidecar-lock silence before a contender takes it over —
    #: several orders of magnitude above the millisecond-scale critical
    #: sections, so only a dead peer's lock is ever stolen
    DEFAULT_STALE_AFTER = 30.0

    def __init__(
        self, root: StorePath, stale_after: Optional[float] = DEFAULT_STALE_AFTER
    ) -> None:
        self.path = Path(root)
        self.stale_after = stale_after
        self._lock_takeovers = 0
        self._last_seq = 0
        meta_path = self.path / self.META_NAME
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                meta = {}
            if meta.get("version") != SHARDED_STORE_VERSION:
                raise ValueError(
                    f"{self.path} holds an unsupported sharded-store layout "
                    f"(version {meta.get('version')!r}); migrate it with "
                    "'python -m repro.autotune cache-migrate'"
                )

    @property
    def uri(self) -> Optional[str]:
        return f"dir:{self.path}"

    def _ensure_meta(self) -> None:
        meta_path = self.path / self.META_NAME
        if not meta_path.exists():
            atomic_write_text(
                meta_path,
                json.dumps(
                    {"format": "repro-sharded-store", "version": SHARDED_STORE_VERSION}
                ),
            )

    def _entry_path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.path / digest[:2] / f"{digest}.json"

    def _next_seq(self) -> int:
        self._last_seq = max(time.time_ns(), self._last_seq + 1)
        return self._last_seq

    def _note_takeover(self) -> None:
        self._lock_takeovers += 1

    def _shard_lock(self, lock_path: Path):
        return file_lock(
            lock_path, stale_after=self.stale_after, on_takeover=self._note_takeover
        )

    def _shard_dirs(self) -> Iterator[Path]:
        if not self.path.is_dir():
            return
        for child in sorted(self.path.iterdir()):
            if child.is_dir() and len(child.name) == 2:
                yield child

    def _entry_files(self) -> Iterator[Path]:
        for shard in self._shard_dirs():
            for entry in sorted(shard.glob("*.json")):
                yield entry

    @staticmethod
    def _read_entry(entry_path: Path) -> Optional[Dict[str, Any]]:
        try:
            record = json.loads(entry_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(record, dict) or "key" not in record or "value" not in record:
            return None
        return record

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        record = self._read_entry(self._entry_path(key))
        if record is None:
            return None
        return dict(record["value"])

    def put(self, key: str, value: Mapping[str, Any]) -> None:
        entry_path = self._entry_path(key)
        entry_path.parent.mkdir(parents=True, exist_ok=True)
        self._ensure_meta()
        # The rename is already atomic; the shard lock additionally orders a
        # put against a concurrent prune unlinking the same entry.
        with self._shard_lock(entry_path.parent / ".lock"):
            # A re-put keeps its original seq: like the dict-backed formats,
            # updating an entry must not refresh its insertion position (the
            # only file read is this entry's own — puts stay O(1)).
            existing = self._read_entry(entry_path)
            if existing is not None and isinstance(existing.get("seq"), int):
                seq = existing["seq"]
            else:
                seq = self._next_seq()
            record = {"key": key, "seq": seq, "value": dict(value)}
            atomic_write_text(entry_path, json.dumps(record))

    def _sorted_records(self) -> list:
        records = []
        for entry_path in self._entry_files():
            record = self._read_entry(entry_path)
            if record is not None:
                records.append((record.get("seq", 0), record["key"], record, entry_path))
        records.sort(key=lambda item: (item[0], item[1]))
        return records

    def scan(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        for _seq, key, record, _path in self._sorted_records():
            yield key, dict(record["value"])

    def prune(self, max_entries: int) -> int:
        with self._shard_lock(self.path / ".lock"):
            records = self._sorted_records()
            drop = len(records) - max_entries
            if drop <= 0:
                return 0
            for _seq, _key, record, entry_path in records[:drop]:
                with self._shard_lock(entry_path.parent / ".lock"):
                    _unlink_quietly(entry_path)
            return drop

    def stats(self) -> Dict[str, Any]:
        entries = 0
        size = 0
        shards = 0
        for shard in self._shard_dirs():
            in_shard = list(shard.glob("*.json"))
            size += _bytes_of(*in_shard)
            if in_shard:
                shards += 1
            entries += len(in_shard)
        return {
            "backend": self.backend,
            "entries": entries,
            "bytes": size,
            "shards": shards,
            "lock_takeovers": self._lock_takeovers,
        }

    def compact(self) -> Dict[str, Any]:
        """Sweep stray temp files and now-empty shard directories."""
        removed_tmp = 0
        removed_dirs = 0
        with self._shard_lock(self.path / ".lock"):
            for shard in list(self._shard_dirs()):
                for stray in shard.glob("*.tmp"):
                    removed_tmp += _unlink_quietly(stray)
                remaining = [p for p in shard.iterdir() if p.suffix == ".json"]
                if not remaining:
                    _unlink_quietly(shard / ".lock")
                    try:
                        shard.rmdir()
                        removed_dirs += 1
                    except OSError:
                        pass
        return {"tmp_files_removed": removed_tmp, "empty_shards_removed": removed_dirs}

    def clear(self) -> None:
        with self._shard_lock(self.path / ".lock"):
            for entry_path in list(self._entry_files()):
                _unlink_quietly(entry_path)

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_files())

    def __contains__(self, key: str) -> bool:
        return self._entry_path(key).exists()


def _fold_record(
    entries: Dict[str, Dict[str, Any]], record: Mapping[str, Any]
) -> Optional[int]:
    """Apply one append-log record onto ``entries``.

    Returns the dead records it created (lines a compaction would drop), or
    ``None`` when it is not a put/del/clear the format defines.
    """
    op = record.get("op")
    if op == "put" and "key" in record and isinstance(record.get("value"), dict):
        key = str(record["key"])
        dead = 1 if key in entries else 0
        entries[key] = dict(record["value"])
        return dead
    if op == "del" and "key" in record:
        # the del line and the put it killed
        return 2 if entries.pop(str(record["key"]), None) is not None else 0
    if op == "clear":
        dead = len(entries) + 1
        entries.clear()
        return dead
    return None


def _put_lines(entries: Mapping[str, Dict[str, Any]]) -> str:
    """``entries`` as the put lines whose replay yields exactly them."""
    return dump_jsonl(
        {"op": "put", "key": key, "value": value} for key, value in entries.items()
    )


class AppendLogStore(CacheStore):
    """Append-only JSONL log with sealed segments and an in-memory index.

    Every mutation is one appended line — ``{"op": "put", ...}`` or
    ``{"op": "del", ...}`` — written to the *active* file under the
    exclusive append lock, so a put costs O(1) regardless of how many
    entries the log holds.  Readers replay only the *tail* they have not
    seen (tracked by byte offset and inode); a change to the sealed
    segment set or a new active inode triggers a clean full re-replay.

    Growth control is split into a cheap half and an expensive half so the
    expensive half never blocks writers:

    * **rotation** (cheap, under the append lock): once the active file
      outgrows ``auto_compact_bytes`` with enough dead records, it is
      *renamed* to an immutable sealed segment ``NAME.NNNNNN.seg`` and a
      fresh active file starts.  The rename is the entire cost.
    * **sealed merge** (expensive, under the *segment* lock only): sealed
      segments are folded into one.  Replaying the merged segment yields
      exactly the same state as replaying the originals in order, so a
      reader holding a stale segment list simply re-replays and converges.
      Appends keep flowing while the merge runs — :meth:`compact_sealed`
      never touches the active file.  Lock order is append → segment.

    Sealed segments double as the fleet replication primitive: being
    immutable, a ``.seg`` file can be shipped to a peer server verbatim and
    applied there with :meth:`ingest_segment` (local entries always win).

    Recovery rules make a crash-truncated tail harmless: a final chunk
    without a newline is left pending (re-examined on the next replay, and
    terminated by the next writer before it appends), and any complete line
    that fails to parse is skipped and counted, never fatal.
    """

    backend = "log"

    #: sealed segments accumulated before an automatic merge folds them;
    #: 2 keeps total sealed bytes within ~1 rotation of the fold size
    AUTO_MERGE_SEGMENTS = 2

    def __init__(
        self,
        path: StorePath,
        auto_compact_bytes: int = 1 << 20,
        auto_compact_ratio: int = 4,
    ) -> None:
        self.path = Path(path)
        self.auto_compact_bytes = auto_compact_bytes
        self.auto_compact_ratio = auto_compact_ratio
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._offset = 0
        self._ino: Optional[int] = None
        self._sealed_seen: Tuple[str, ...] = ()
        self._dead_records = 0
        self._corrupt_lines = 0
        self._compactions = 0
        self._rotations = 0
        self._replay()

    @property
    def uri(self) -> Optional[str]:
        return f"log:{self.path}"

    def _lock_path(self) -> Path:
        return self.path.with_name(self.path.name + ".lock")

    def _seg_lock_path(self) -> Path:
        return self.path.with_name(self.path.name + ".seglock")

    def _sealed_paths(self) -> List[Path]:
        """The sealed segment files, in replay (name) order."""
        return sorted(self.path.parent.glob(f"{self.path.name}.*.seg"))

    def _reset(self) -> None:
        self._entries = {}
        self._offset = 0
        self._dead_records = 0
        self._corrupt_lines = 0

    def _apply(self, record: Mapping[str, Any]) -> None:
        dead = _fold_record(self._entries, record)
        if dead is None:
            self._corrupt_lines += 1
        else:
            self._dead_records += dead

    def _consume_lines(self, chunk: bytes) -> int:
        """Apply every complete line in ``chunk``; returns bytes consumed."""
        records, corrupt, consumed = scan_jsonl(chunk)
        self._corrupt_lines += corrupt
        for record in records:
            self._apply(record)
        return consumed

    def _replay(self) -> None:
        """Catch the in-memory index up with the segments + active tail."""
        sealed = tuple(path.name for path in self._sealed_paths())
        try:
            stat = self.path.stat()
        except OSError:
            stat = None
        active_replaced = stat is not None and (
            stat.st_ino != self._ino or stat.st_size < self._offset
        )
        active_vanished = stat is None and (
            self._ino is not None or self._offset > 0
        )
        if sealed != self._sealed_seen or active_replaced or active_vanished:
            # Rotated/merged/compacted by someone else (or first sight of
            # the log): start over — sealed segments fully, then the active
            # file from byte 0.  If a concurrent merge deletes a segment
            # mid-replay we may apply a stale mix, but the merged segment is
            # exactly the fold of the originals, so the *next* replay (which
            # will see a changed sealed set again) converges.
            self._reset()
            self._sealed_seen = sealed
            for segment in self._sealed_paths():
                try:
                    data = segment.read_bytes()
                except OSError:
                    continue
                self._consume_lines(data + b"\n")  # sealed mid-crash: last line counts
            self._ino = stat.st_ino if stat is not None else None
        if stat is None or stat.st_size == self._offset:
            return
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
        self._offset += self._consume_lines(chunk)

    def _write_locked(self, records: Sequence[Dict[str, Any]]) -> int:
        """Append records to the active file and apply them to the index.

        Caller holds the append lock.  Returns the active file size afterwards.
        """
        size = append_jsonl(self.path, records)
        for record in records:
            self._apply(record)
        # Our records are the last consumed lines; the whole file is now
        # processed, so the replay offset can jump straight to the end.
        self._offset = size
        if self._ino is None:
            self._ino = self.path.stat().st_ino
        return size

    def _append(self, record: Dict[str, Any]) -> None:
        """One record line under the append lock; rotation when oversized."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        merge_due = False
        with file_lock(self._lock_path()):
            self._replay()
            size = self._write_locked([record])
            if (
                size >= self.auto_compact_bytes
                and self._dead_records
                >= self.auto_compact_ratio * max(1, len(self._entries))
            ):
                self._rotate_locked()
                merge_due = len(self._sealed_seen) >= self.AUTO_MERGE_SEGMENTS
        if merge_due:
            # Outside the append lock on purpose: the merge is the expensive
            # half and must not serialise against other writers.
            self.compact_sealed()

    def _rotate_locked(self) -> Optional[Path]:
        """Seal the active file as a new segment; caller holds append lock."""
        try:
            if self.path.stat().st_size == 0:
                return None
        except OSError:
            return None
        numbers = [0]
        for segment in self._sealed_paths():
            part = segment.name[len(self.path.name) + 1 : -len(".seg")]
            if part.isdigit():
                numbers.append(int(part))
        target = self.path.with_name(
            f"{self.path.name}.{max(numbers) + 1:06d}.seg"
        )
        os.replace(self.path, target)
        self._sealed_seen = tuple(path.name for path in self._sealed_paths())
        self._offset = 0
        self._ino = None
        self._rotations += 1
        return target

    def rotate(self) -> Optional[Path]:
        """Seal the current active file; returns the new segment's path.

        ``None`` when there is nothing to seal.  The rename is the entire
        cost — no data is rewritten, so writers are blocked only for the
        duration of one directory operation.
        """
        with file_lock(self._lock_path()):
            self._replay()
            return self._rotate_locked()

    @staticmethod
    def _fold_segment(segment: Path, folded: Dict[str, Dict[str, Any]]) -> None:
        """Apply one segment file's records onto ``folded``, last line included."""
        for record in scan_jsonl(segment.read_bytes() + b"\n")[0]:
            _fold_record(folded, record)

    def compact_sealed(self) -> Dict[str, Any]:
        """Fold every sealed segment into one; never touches the active file.

        Holds only the segment lock, so appends (append lock) proceed
        concurrently — this is the "compaction never blocks appends" half of
        the growth story.  The merged segment atomically replaces the
        lowest-numbered one; higher segments are then unlinked.  Replaying
        the merged segment yields exactly the fold of the originals, so any
        reader observes either the old set, the new set, or a stale mix that
        its next replay converges away.
        """
        with file_lock(self._seg_lock_path()):
            segments = self._sealed_paths()
            before = _bytes_of(*segments)
            if len(segments) < 2:
                return {
                    "segments_merged": 0,
                    "bytes_before": before,
                    "bytes_after": before,
                }
            folded: Dict[str, Dict[str, Any]] = {}
            for segment in segments:
                try:
                    self._fold_segment(segment, folded)
                except OSError:
                    continue
            atomic_write_text(segments[0], _put_lines(folded))
            for segment in segments[1:]:
                _unlink_quietly(segment)
            self._compactions += 1
            after = _bytes_of(segments[0])
        # _sealed_seen is now stale on purpose: the next _replay notices the
        # changed sealed set and re-replays, refreshing dead-record counts.
        return {
            "segments_merged": len(segments),
            "bytes_before": before,
            "bytes_after": after,
        }

    def ingest_segment(self, segment: StorePath) -> int:
        """Apply a peer's sealed segment; returns the entries adopted.

        The replication receive side: every entry the segment's fold holds
        for a key absent locally is appended as a local put.  Local entries
        always win — the home server's result for a fingerprint is
        authoritative, a shipped segment only fills gaps.
        """
        segment = Path(segment)
        incoming: Dict[str, Dict[str, Any]] = {}
        try:
            self._fold_segment(segment, incoming)
        except OSError as error:
            raise ValueError(f"cannot read segment {segment}: {error}") from None
        if not incoming:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with file_lock(self._lock_path()):
            self._replay()
            records = [
                {"op": "put", "key": key, "value": value}
                for key, value in incoming.items()
                if key not in self._entries
            ]
            if records:
                self._write_locked(records)
        return len(records)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        value = self._entries.get(key)
        if value is not None:
            return dict(value)
        self._replay()  # pick up appends by other processes
        value = self._entries.get(key)
        return dict(value) if value is not None else None

    def put(self, key: str, value: Mapping[str, Any]) -> None:
        self._append({"op": "put", "key": key, "value": dict(value)})

    def scan(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        self._replay()
        for key, value in list(self._entries.items()):
            yield key, dict(value)

    def prune(self, max_entries: int) -> int:
        with file_lock(self._lock_path()):
            self._replay()
            drop = len(self._entries) - max_entries
            if drop <= 0:
                return 0
            for key in list(self._entries)[:drop]:
                del self._entries[key]
            self._compact_locked()
            return drop

    def _compact_locked(self) -> None:
        """Fold everything — sealed + active — into a fresh active file.

        Caller holds the append lock; the segment lock is taken inside
        (append → segment is the global lock order).  This is the one
        stop-the-world operation, reserved for explicit ``compact``,
        ``prune`` and ``clear``; routine growth control goes through
        rotation plus :meth:`compact_sealed` instead.
        """
        with file_lock(self._seg_lock_path()):
            text = _put_lines(self._entries)
            atomic_write_text(self.path, text)
            for segment in self._sealed_paths():
                _unlink_quietly(segment)
            self._sealed_seen = ()
            self._offset = len(text.encode("utf-8"))
            self._ino = self.path.stat().st_ino
            self._dead_records = 0
            self._corrupt_lines = 0
            self._compactions += 1

    def compact(self) -> Dict[str, Any]:
        with file_lock(self._lock_path()):
            self._replay()
            before = _bytes_of(self.path, *self._sealed_paths())
            self._compact_locked()
            after = self.path.stat().st_size
        return {"bytes_before": before, "bytes_after": after}

    def stats(self) -> Dict[str, Any]:
        self._replay()  # count appends by other processes, not a stale index
        sealed_bytes = _bytes_of(*self._sealed_paths())
        return {
            "backend": self.backend,
            "entries": len(self._entries),
            "bytes": _bytes_of(self.path) + sealed_bytes,
            "segments": 1 + len(self._sealed_seen),
            "sealed_bytes": sealed_bytes,
            "rotations": self._rotations,
            "dead_records": self._dead_records,
            "corrupt_lines": self._corrupt_lines,
            "compactions": self._compactions,
        }

    def clear(self) -> None:
        with file_lock(self._lock_path()):
            self._replay()
            self._entries = {}
            self._compact_locked()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


#: URI schemes understood by :func:`parse_store_uri`
_SCHEMES = {
    "json": "json",
    "dir": "sharded",
    "log": "log",
    "mem": "memory",
    "memory": "memory",
}


def parse_store_uri(spec: Optional[StorePath]) -> Tuple[str, Optional[str]]:
    """Resolve a cache spec to ``(backend, location)``.

    Explicit schemes win: ``json:PATH``, ``dir:PATH``, ``log:PATH``,
    ``mem:``.  Without one, an existing directory (or a trailing separator)
    selects the sharded store, a ``.jsonl``/``.log`` suffix the append log,
    and anything else the legacy single JSON file.  An unrecognised scheme
    is an error rather than a silently-misparsed filename (single letters
    are exempt — Windows drive prefixes).
    """
    if spec is None:
        return "memory", None
    text = os.fspath(spec) if not isinstance(spec, str) else spec
    text = str(text)
    scheme, sep, rest = text.partition(":")
    if sep:
        lowered = scheme.lower()
        if lowered in _SCHEMES:
            backend = _SCHEMES[lowered]
            if backend == "memory":
                return "memory", None
            if not rest:
                raise ValueError(f"cache store URI {text!r} is missing a path")
            return backend, rest
        # Anything shaped like a URI scheme (RFC 3986: letter, then
        # letters/digits/+/-/.) but unknown is an error, not a filename;
        # single letters stay exempt — Windows drive prefixes.
        if len(scheme) > 1 and re.fullmatch(r"[A-Za-z][A-Za-z0-9+.-]*", scheme):
            raise ValueError(
                f"unknown cache store scheme {scheme!r} in {text!r}; "
                f"expected one of {sorted(set(_SCHEMES))} or a plain path"
            )
    if text.endswith(("/", os.sep)):
        return "sharded", text.rstrip("/" + os.sep) or "/"
    if Path(text).is_dir():
        return "sharded", text
    if text.endswith((".jsonl", ".log")):
        return "log", text
    return "json", text


def open_store(spec: Optional[StorePath]) -> CacheStore:
    """Open the backend a cache spec names (see :func:`parse_store_uri`)."""
    if isinstance(spec, CacheStore):
        return spec
    backend, location = parse_store_uri(spec)
    if backend == "memory":
        return MemoryStore()
    if backend == "sharded":
        return ShardedStore(location)
    if backend == "log":
        return AppendLogStore(location)
    return JsonFileStore(location)


def migrate_store(
    src: Union[CacheStore, StorePath],
    dst: Union[CacheStore, StorePath],
    force: bool = False,
) -> Dict[str, Any]:
    """Copy every entry of ``src`` into ``dst``, preserving insertion order.

    Works between any two backends (v2 JSON ↔ sharded ↔ append-log).  The
    destination must be empty unless ``force`` clears it first; entry counts
    are verified after the copy so a partial migration cannot masquerade as
    a complete one.  Returns ``{"entries", "src", "dst", ...}``.
    """
    src_store = open_store(src)
    dst_store = open_store(dst)
    if src_store.path is not None and dst_store.path is not None:
        # resolve() so aliases (relative vs absolute, ./x, symlinks) cannot
        # slip past the guard and let --force clear the source
        if src_store.path.resolve() == dst_store.path.resolve():
            raise ValueError(
                f"source and destination are the same store: {src_store.uri}"
            )
    existing = len(dst_store)
    if existing:
        if not force:
            raise ValueError(
                f"destination {dst_store.uri or 'memory'} already holds "
                f"{existing} entries; pass force to overwrite"
            )
        dst_store.clear()
    copied = 0
    for key, value in src_store.scan():
        dst_store.put(key, value)
        copied += 1
    src_count = sum(1 for _ in src_store.scan())
    dst_count = len(dst_store)
    if dst_count != copied or src_count != copied:
        raise RuntimeError(
            f"migration verification failed: copied {copied} entries but the "
            f"source now scans {src_count} and the destination holds {dst_count}"
        )
    return {
        "entries": copied,
        "src": src_store.uri,
        "dst": dst_store.uri,
        "src_backend": src_store.backend,
        "dst_backend": dst_store.backend,
    }
