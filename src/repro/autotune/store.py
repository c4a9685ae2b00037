"""Persistence for the tuning cache: one append log, whatever the spelling.

:class:`repro.autotune.cache.TuningCache` delegates persistence to a
:class:`CacheStore`.  There are two: :class:`MemoryStore` for ``cache=None``
sessions, and :class:`AppendLogStore` — one append-only JSONL file with an
in-memory offset index, crash-truncated-tail recovery, and an in-place
rewrite once superseded lines dominate it.

Every cache spec names a *location* of that log (see :func:`parse_store_uri`):

``log:FILE``, ``FILE.jsonl``, ``FILE.log``
    the log is ``FILE``;
``dir:DIR``, an existing directory, ``DIR/``
    the log is ``DIR/cache.log``;
``json:FILE`` or any other plain path (``FILE.json``)
    the log is ``FILE`` itself.

Earlier versions wrote three other layouts at those locations: a version-2
JSON document (``{"version", "entries", "tombstones"}``) at a plain path,
one ``{"key", "seq", "value"}`` file per entry under ``DIR/XX/``, and a log
split into sealed ``LOG.NNNNNN.seg`` segments beside it.
:func:`open_store` imports each once, under the log's append lock and in
insertion order: a JSON document is rewritten in place as put lines, entry
files are folded into ``DIR/cache.log`` while that log does not exist yet
(the entry files stay untouched), and sealed segments are folded with the
log into its put lines, then unlinked.  Version-1 documents read cold.
Writers of those older versions and of this one must not share a location.

Stores are safe against concurrent *processes* via ``fcntl`` advisory locks
(with a warn-once degradation where ``fcntl`` is missing); *thread* safety
is provided one level up by the :class:`TuningCache` facade's mutex.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import re
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple, Union

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
    gauges sorted by name, so no consumer hard-codes them.  Shared by both
    CLIs and the service wire docs.
    """
    for name in CACHE_STATS_COMMON_FIELDS:
        if name in stats:
            yield name, stats[name]
    for name in sorted(stats):
        if name not in CACHE_STATS_COMMON_FIELDS:
            yield name, stats[name]


def _size_of(path: Path) -> int:
    """The size of ``path``; 0 when it does not exist."""
    try:
        return path.stat().st_size
    except OSError:
        return 0


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
    """Append-only JSONL log with an in-memory index.

    Every mutation is one appended line — ``{"op": "put", ...}`` — written
    under the exclusive append lock, so a put costs O(1) regardless of how
    many entries the log holds.  Readers replay only the *tail* they have
    not seen (tracked by byte offset and inode); a new inode or a shorter
    file means another process rewrote the log, and triggers a clean full
    re-replay.

    Growth control: once the file reaches :attr:`COMPACT_BYTES` and its dead
    records (lines a later line superseded) reach :attr:`COMPACT_RATIO`
    times the live entries, the appender rewrites it in place as one put
    line per live entry, under the same lock — the rewrite ``compact``,
    ``prune`` and ``clear`` use.  A put of a new key makes no dead record,
    so traffic of distinct keys never triggers it.

    Recovery rules make a crash-truncated tail harmless: a final chunk
    without a newline is left pending (re-examined on the next replay, and
    terminated by the next writer before it appends), and any complete line
    that fails to parse is skipped and counted, never fatal.
    """

    backend = "log"

    #: bytes a log must reach before an append may compact it
    COMPACT_BYTES = 1 << 20
    #: dead records per live entry that make an oversized log worth rewriting
    COMPACT_RATIO = 4

    def __init__(self, path: StorePath) -> None:
        self.path = Path(path)
        self._ino: Optional[int] = None
        self._compactions = 0
        self._reset()
        self._replay()

    @property
    def uri(self) -> Optional[str]:
        return f"log:{self.path}"

    def _lock_path(self) -> Path:
        return self.path.with_name(self.path.name + ".lock")

    def _reset(self) -> None:
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._offset = 0
        self._dead_records = 0
        self._corrupt_lines = 0

    def _apply(self, record: Mapping[str, Any]) -> None:
        dead = _fold_record(self._entries, record)
        if dead is None:
            self._corrupt_lines += 1
        else:
            self._dead_records += dead

    def _replay(self) -> None:
        """Catch the in-memory index up with the log's tail."""
        try:
            stat = self.path.stat()
        except OSError:
            if self._ino is not None or self._offset > 0:  # removed under us
                self._reset()
                self._ino = None
            return
        if stat.st_ino != self._ino or stat.st_size < self._offset:
            # first sight of the log, or rewritten by another process
            self._reset()
            self._ino = stat.st_ino
        if stat.st_size == self._offset:
            return
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
        records, corrupt, consumed = scan_jsonl(chunk)
        self._corrupt_lines += corrupt
        for record in records:
            self._apply(record)
        self._offset += consumed

    def _append(self, record: Dict[str, Any]) -> None:
        """One record line under the append lock; a rewrite when it is due."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with file_lock(self._lock_path()):
            self._replay()
            size = append_jsonl(self.path, [record])
            self._apply(record)
            # our record is the last line: the whole file is now consumed
            self._offset = size
            if self._ino is None:
                self._ino = self.path.stat().st_ino
            if size >= self.COMPACT_BYTES and self._dead_records >= (
                self.COMPACT_RATIO * max(1, len(self._entries))
            ):
                self._compact_locked()

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
        """Rewrite the log as one put line per live entry; caller holds the lock.

        Other processes see the new inode on their next replay and start over.
        """
        text = _put_lines(self._entries)
        atomic_write_text(self.path, text)
        self._offset = len(text.encode("utf-8"))
        self._ino = self.path.stat().st_ino
        self._dead_records = 0
        self._corrupt_lines = 0
        self._compactions += 1

    def compact(self) -> Dict[str, Any]:
        with file_lock(self._lock_path()):
            self._replay()
            before = _size_of(self.path)
            self._compact_locked()
            return {"bytes_before": before, "bytes_after": self._offset}

    def stats(self) -> Dict[str, Any]:
        self._replay()  # count appends by other processes, not a stale index
        return {
            "backend": self.backend,
            "entries": len(self._entries),
            "bytes": _size_of(self.path),
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
    text = str(os.fspath(spec))
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


def _segment_paths(log: Path) -> List[Path]:
    """The ``LOG.NNNNNN.seg`` segments an older version sealed, oldest first."""
    return sorted(log.parent.glob(f"{glob.escape(log.name)}.*.seg"))


def _segment_entries(log: Path) -> Optional[Dict[str, Dict[str, Any]]]:
    """The entries of a segmented log: its sealed segments, then ``log`` itself.

    ``None`` when ``log`` has no sealed segments.  A last line counts if it parses.
    """
    segments = _segment_paths(log)
    if not segments:
        return None
    entries: Dict[str, Dict[str, Any]] = {}
    for path in (*segments, log):
        try:
            data = path.read_bytes()
        except OSError:
            continue
        for record in scan_jsonl(data + b"\n")[0]:
            _fold_record(entries, record)
    return entries


def _import_legacy(
    log: Path, legacy: Callable[[], Optional[Dict[str, Dict[str, Any]]]]
) -> None:
    """Write the entries ``legacy()`` finds as ``log``'s put lines, once.

    ``legacy`` is asked again under the append lock: of several processes
    opening one legacy location, the first converts it and the rest find
    the log in place and import nothing.  Sealed segments go only once the
    log holds their entries; a crash in between re-folds them, and the log
    re-puts every key they hold unless a ``del``/``clear`` line (which no
    version wrote) removed it.
    """
    if legacy() is None:
        return
    with file_lock(log.with_name(log.name + ".lock")):
        entries = legacy()
        if entries is not None:
            atomic_write_text(log, _put_lines(entries))
            for segment in _segment_paths(log):
                with contextlib.suppress(OSError):
                    segment.unlink()


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
    _import_legacy(path, lambda: _segment_entries(path))
    return AppendLogStore(path)
