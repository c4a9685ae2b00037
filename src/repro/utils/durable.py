"""Crash-safe file primitives: the one place the stack's durability lives.

Every persistent file of the tuning stack — the tuning-cache append log
(:mod:`repro.autotune.store`), the tuning history
(:mod:`repro.telemetry.history`) and the compiled-binary cache
(:mod:`repro.codegen.compile_cache`) — is written through the operations
here and nowhere else:

* :func:`file_lock` — exclusive advisory lock on a *sidecar* file, optionally
  with age-based takeover of a lock a dead peer left wedged;
* :func:`atomic_install` / :func:`atomic_write_text` — same-directory temp
  file, then ``os.replace``; the temp file never outlives a failure;
* :func:`append_jsonl` / :func:`dump_jsonl` — compact one-object-per-line
  records, appended after terminating a crash-torn tail;
* :func:`scan_jsonl` — the matching reader: complete lines only, corrupt
  lines skipped and counted, an unterminated tail left pending.

Stdlib only, and imports nothing from ``repro``: this module sits under
every package that persists anything, so the acquire / write / rename /
release steps a crash or a racing process can interleave with are all here.

Locks order *processes* via ``fcntl`` (a once-per-process warning replaces
them where ``fcntl`` is missing); threads sharing a handle are serialised by
the callers' own mutexes.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = [
    "append_jsonl",
    "atomic_install",
    "atomic_write_text",
    "dump_jsonl",
    "file_lock",
    "scan_jsonl",
]

#: whether the missing-fcntl warning has been emitted (once per process)
_warned_unlocked = False

#: seconds a contender sleeps between attempts on a live holder's lock
_POLL_INTERVAL = 0.05


@contextlib.contextmanager
def file_lock(
    path: Path,
    stale_after: Optional[float] = None,
    on_takeover: Optional[Callable[[], None]] = None,
) -> Iterator[None]:
    """Exclusive advisory lock on the sidecar file ``path``.

    A *sidecar* rather than the data file itself: clients replace their data
    files atomically (``os.replace``), which would orphan a lock held on the
    replaced inode.

    ``flock`` held by a *dead process on the same host* releases itself, but
    on a multi-server NFS mount a peer that died (or lost its mount) can
    leave the advisory lock wedged — every other server then waits forever.
    With ``stale_after`` set, a contender that cannot acquire the lock and
    finds the sidecar untouched for longer than ``stale_after`` seconds
    *takes it over*: the sidecar is unlinked (``on_takeover`` is told) and a
    fresh one created, so the dead peer's lock keeps only its orphaned
    inode.  Holders freshen the sidecar's mtime at acquisition, and critical
    sections are sub-second writes, so a live-but-slow peer is only at risk
    if it holds the lock longer than ``stale_after`` — pick it orders of
    magnitude above the section length.  ``stale_after=None`` waits forever.
    """
    if fcntl is None:
        global _warned_unlocked
        if not _warned_unlocked:
            _warned_unlocked = True
            warnings.warn(
                "fcntl is unavailable on this platform: file writes proceed "
                "without inter-process file locking, so concurrent writers may race",
                RuntimeWarning,
                stacklevel=3,  # the client code that asked for the lock
            )
        yield
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    if stale_after is None:
        with open(path, "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)
        return
    while True:
        handle = open(path, "a")
        try:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                # Contended: a live holder refreshed the sidecar's mtime when
                # it acquired; one older than stale_after marks a dead peer.
                try:
                    age = time.time() - path.stat().st_mtime
                except OSError:
                    continue  # holder released and removed it — retry now
                if age > stale_after:
                    try:
                        path.unlink()
                    except OSError:
                        pass
                    if on_takeover is not None:
                        on_takeover()
                else:
                    time.sleep(_POLL_INTERVAL)
                continue
            # Acquired — but only the *current* sidecar counts: another
            # contender may have taken the file over between our open and
            # flock, leaving us locked on an orphaned inode.
            try:
                current_ino = path.stat().st_ino
            except OSError:
                current_ino = None
            if current_ino != os.fstat(handle.fileno()).st_ino:
                fcntl.flock(handle, fcntl.LOCK_UN)
                handle.close()
                continue
            os.utime(handle.fileno())  # freshen: we are a live holder
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)
                handle.close()
            return
        except BaseException:
            try:
                handle.close()
            except OSError:
                pass
            raise


def atomic_install(path: Path, produce: Callable[[Path], Any]) -> None:
    """Let ``produce(temp_path)`` write a same-directory temp file, then
    rename it over ``path``; a failure leaves ``path`` as it was, no temp."""
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        os.close(descriptor)
        produce(Path(temp_name))
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: Path, text: str) -> None:
    """Replace ``path``'s content with ``text`` (UTF-8), all or nothing."""
    atomic_install(path, lambda temp: temp.write_text(text, encoding="utf-8"))


def dump_jsonl(records: Iterable[Any]) -> str:
    """``records`` as compact JSON, one newline-terminated line each."""
    return "".join(
        json.dumps(record, separators=(",", ":")) + "\n" for record in records
    )


def append_jsonl(path: Path, records: Iterable[Any]) -> int:
    """Append ``records`` to ``path``; returns the file size afterwards.

    The caller holds the file's :func:`file_lock`.  Tail-terminating: a
    crash-torn partial final line is closed with a newline first, so it
    stays one skippable corrupt line instead of fusing with the first
    record.
    """
    payload = dump_jsonl(records).encode("utf-8")
    try:
        with open(path, "rb") as peek:
            peek.seek(-1, os.SEEK_END)
            needs_newline = peek.read(1) != b"\n"
    except (OSError, ValueError):
        needs_newline = False  # missing or empty file
    with open(path, "ab") as handle:
        if needs_newline:
            handle.write(b"\n")
        handle.write(payload)
        handle.flush()
        return handle.tell()


def scan_jsonl(chunk: bytes) -> Tuple[List[Dict[str, Any]], int, int]:
    """Parse the complete lines of ``chunk``: ``(records, corrupt, consumed)``.

    ``records`` are the lines holding a JSON object, in order; ``corrupt``
    counts the non-blank lines that do not (undecodable, or another JSON
    type) — skipped, never fatal.  ``consumed`` is the byte length of the
    complete lines: an unterminated tail is left pending for the caller to
    offer again once its writer (or the next appender) has terminated it.  A
    reader of a whole file nobody will finish passes ``data + b"\\n"`` so
    the last line counts.
    """
    consumed = chunk.rfind(b"\n") + 1
    records: List[Dict[str, Any]] = []
    corrupt = 0
    for line in chunk[:consumed].split(b"\n"):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError:  # includes UnicodeDecodeError
            corrupt += 1
            continue
        if isinstance(record, dict):
            records.append(record)
        else:
            corrupt += 1
    return records, corrupt, consumed
