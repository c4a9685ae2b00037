"""Persistence for the tuning cache: one append log, whatever the spelling.

:class:`repro.autotune.cache.TuningCache` delegates persistence to a
:class:`CacheStore`.  There are two: :class:`MemoryStore` for ``cache=None``
sessions, and :class:`AppendLogStore` — append-only JSONL with an in-memory
offset index, crash-truncated-tail recovery, and size-triggered *rotation*
into immutable sealed segments that a background merge folds without ever
blocking appends.

Every cache spec names a *location* of that log (see :func:`parse_store_uri`):

``log:FILE``, ``FILE.jsonl``, ``FILE.log``
    the log is ``FILE``;
``dir:DIR``, an existing directory, ``DIR/``
    the log is ``DIR/cache.log``;
``json:FILE`` or any other plain path (``FILE.json``)
    the log is ``FILE`` itself.

Earlier versions wrote two other formats at those locations: a version-2
JSON document (``{"version", "entries", "tombstones"}``) at a plain path, and
one ``{"key", "seq", "value"}`` file per entry under ``DIR/XX/``.
:func:`open_store` imports either once, under the log's append lock and in
insertion order: a JSON document is rewritten in place as put lines, and
entry files are folded into ``DIR/cache.log`` while that log does not exist
yet (the entry files stay untouched).  Version-1 documents read cold.
Writers of those older versions and of this one must not share a location.

Stores are safe against concurrent *processes* via ``fcntl`` advisory locks
(with a warn-once degradation where ``fcntl`` is missing); *thread* safety
is provided one level up by the :class:`TuningCache` facade's mutex.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

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

#: name of the log inside a ``dir:`` location
_DIR_LOG_NAME = "cache.log"

#: how every log line starts (a legacy JSON document never does)
_LOG_HEAD = b'{"op":'

StorePath = Union[str, os.PathLike]

#: stats fields every backend (plus the facade's counters) reports; anything
#: else in a stats payload is a backend-specific gauge
CACHE_STATS_COMMON_FIELDS = ("backend", "entries", "bytes", "hits", "misses")


def ordered_cache_stats(stats: Mapping[str, Any]) -> Iterator[Tuple[str, Any]]:
    """A cache-stats payload as (field, value) pairs in render order.

    Common fields first (in their documented order), then the backend's own
    gauges sorted by name — so the log's ``segments``/``compactions`` show
    without the consumer hard-coding them.  Shared by both CLIs and the
    service wire docs.
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
    the order ``prune`` treats as oldest-first and the legacy import
    preserves.  Implementations must keep ``put`` durable
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
_SCHEMES = ("json", "dir", "log", "mem", "memory")


def parse_store_uri(spec: Optional[StorePath]) -> Tuple[str, Optional[str]]:
    """Resolve a cache spec to ``(spelling, location)``.

    ``spelling`` is ``memory``, ``log``, ``dir`` or ``json``; ``location`` is
    the path the spec names (``None`` in memory).  Explicit schemes win:
    ``log:PATH``, ``dir:PATH``, ``json:PATH``, ``mem:``.  Without one, an
    existing directory (or a trailing separator) is ``dir``, a
    ``.jsonl``/``.log`` suffix is ``log``, and anything else ``json``.  An
    unrecognised scheme is an error rather than a silently-misparsed
    filename (single letters are exempt — Windows drive prefixes).
    """
    if spec is None:
        return "memory", None
    text = os.fspath(spec) if not isinstance(spec, str) else spec
    text = str(text)
    scheme, sep, rest = text.partition(":")
    if sep:
        lowered = scheme.lower()
        if lowered in _SCHEMES:
            if lowered.startswith("mem"):
                return "memory", None
            if not rest:
                raise ValueError(f"cache store URI {text!r} is missing a path")
            return lowered, rest
        # Anything shaped like a URI scheme (RFC 3986: letter, then
        # letters/digits/+/-/.) but unknown is an error, not a filename;
        # single letters stay exempt — Windows drive prefixes.
        if len(scheme) > 1 and re.fullmatch(r"[A-Za-z][A-Za-z0-9+.-]*", scheme):
            raise ValueError(
                f"unknown cache store scheme {scheme!r} in {text!r}; "
                f"expected one of {sorted(_SCHEMES)} or a plain path"
            )
    if text.endswith(("/", os.sep)):
        return "dir", text.rstrip("/" + os.sep) or "/"
    if Path(text).is_dir():
        return "dir", text
    if text.endswith((".jsonl", ".log")):
        return "log", text
    return "json", text


def _document_entries(path: Path) -> Optional[Dict[str, Dict[str, Any]]]:
    """The entries of a legacy JSON document at ``path``, in insertion order.

    ``None`` when ``path`` holds no such document: it is missing, already a
    log, or does not parse as one JSON object (a log whose first line is
    torn; the log's replay skips what it cannot read).  A version-2
    document's ``entries`` never hold its tombstoned keys; any other
    document (version 1) yields no entries, so it reads cold.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read(len(_LOG_HEAD))
            if not data or data == _LOG_HEAD:
                return None
            data += handle.read()
        payload = json.loads(data)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or "op" in payload:
        return None
    entries = payload.get("entries")
    if payload.get("version") != CACHE_VERSION or not isinstance(entries, dict):
        return {}
    return {str(k): dict(v) for k, v in entries.items() if isinstance(v, dict)}


def _shard_entries(root: Path) -> Optional[Dict[str, Dict[str, Any]]]:
    """The entries of legacy ``ROOT/XX/*.json`` entry files, in ``seq`` order.

    ``None`` when ``ROOT``'s log already exists (active or sealed) or there
    are no entry files to fold into it.
    """
    log = root / _DIR_LOG_NAME
    if log.exists() or any(root.glob(f"{_DIR_LOG_NAME}.*.seg")):
        return None
    records = []
    for entry_path in root.glob("[0-9a-f][0-9a-f]/*.json"):
        try:
            record = json.loads(entry_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            record = None
        if isinstance(record, dict) and "key" in record and isinstance(record.get("value"), dict):
            records.append((record.get("seq", 0), str(record["key"]), record["value"]))
    if not records:
        return None
    return {key: dict(value) for _seq, key, value in sorted(records, key=lambda r: r[:2])}


def _import_legacy(
    log: Path, legacy: Callable[[], Optional[Dict[str, Dict[str, Any]]]]
) -> None:
    """Write the entries ``legacy()`` finds as ``log``'s put lines, once.

    ``legacy`` is asked again under the append lock: of several processes
    opening one legacy location, the first converts it and the rest find
    the log in place and import nothing.
    """
    if legacy() is None:
        return
    with file_lock(log.with_name(log.name + ".lock")):
        entries = legacy()
        if entries is not None:
            atomic_write_text(log, _put_lines(entries))


def open_store(spec: Optional[StorePath]) -> CacheStore:
    """Open the store a cache spec names (see :func:`parse_store_uri`)."""
    if isinstance(spec, CacheStore):
        return spec
    spelling, location = parse_store_uri(spec)
    if spelling == "memory":
        return MemoryStore()
    path = Path(location)
    if spelling == "dir":
        root, path = path, path / _DIR_LOG_NAME
        _import_legacy(path, lambda: _shard_entries(root))
    elif spelling == "json":
        _import_legacy(path, lambda: _document_entries(path))
    return AppendLogStore(path)
