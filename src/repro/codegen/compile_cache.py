"""An on-disk, LRU-bounded cache of compiled measurement binaries.

The ``measure-c:`` backend used to compile every candidate's harness into a
throwaway tempdir — one full ``cc`` invocation per candidate, per request,
per process, even when the emitted source was byte-identical.  Since the
harness reads every timing knob (warmup/repeat/seed) from ``argv`` (see
:func:`repro.codegen.emit_c_exec.emit_c_harness`), the compiled binary is a
pure function of ``(source text, compiler, cflags)`` — exactly the cache key
here.

Layout is sharded by key prefix: ``root/<key[:2]>/<key>`` holds the
executable, with a ``.lock`` sidecar per entry (:func:`~repro.utils.durable.
file_lock` and :func:`~repro.utils.durable.atomic_install`), so

* a warm hit is one ``os.stat`` plus an ``os.utime`` touch (the LRU clock),
* concurrent *processes* racing on a cold key serialize on the sidecar and
  the loser finds the winner's binary installed (exactly one ``cc`` run
  fleet-wide per key),
* eviction beyond ``capacity`` drops the least-recently-used binaries.

Reuse is observable: ``repro_compile_cache_total{outcome=hit|miss|evict}``
counts every path through :meth:`CompileCache.get_or_compile`.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro.telemetry.metrics import METRICS
from repro.utils.durable import atomic_install, file_lock

COMPILE_CACHE_TOTAL = METRICS.counter(
    "repro_compile_cache_total",
    "measure-c binary compile-cache lookups by outcome",
    labels=("outcome",),
)

#: environment override for the default cache root
COMPILE_CACHE_ENV = "REPRO_COMPILE_CACHE"

#: default ceiling on cached binaries before LRU eviction kicks in
DEFAULT_CAPACITY = 256


def default_cache_root() -> Path:
    """``$REPRO_COMPILE_CACHE`` or ``~/.cache/repro/measure-c``."""
    override = os.environ.get(COMPILE_CACHE_ENV)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro" / "measure-c"


def binary_key(source: str, compiler: str, cflags: str) -> str:
    """Cache key of one compiled harness: source text + toolchain identity."""
    digest = hashlib.sha256()
    for part in (compiler, cflags, source):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class CompileCache:
    """Content-addressed store of compiled binaries with LRU eviction."""

    def __init__(
        self,
        root: Union[str, os.PathLike, None] = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"compile-cache capacity must be positive, got {capacity}")
        self.root = Path(root) if root is not None else default_cache_root()
        self.capacity = capacity

    def _paths(self, key: str) -> tuple:
        shard = self.root / key[:2]
        return shard / key, shard / f"{key}.lock"

    def get_or_compile(
        self, key: str, compile_fn: Callable[[Path], None]
    ) -> tuple:
        """The cached binary for ``key``, compiling it on first use.

        ``compile_fn(path)`` must produce an executable at ``path`` (it runs
        under the entry's sidecar lock, so at most one process compiles a
        given key at a time — racing losers find the winner's binary).
        Returns ``(path, outcome)`` with ``outcome`` ``"hit"`` or ``"miss"``.
        """
        binary, lock = self._paths(key)
        if binary.exists():
            self._touch(binary)
            COMPILE_CACHE_TOTAL.inc(outcome="hit")
            return binary, "hit"
        with file_lock(lock):
            # double-check: another process may have installed it while we
            # waited on the sidecar
            if binary.exists():
                self._touch(binary)
                COMPILE_CACHE_TOTAL.inc(outcome="hit")
                return binary, "hit"
            atomic_install(binary, compile_fn)
        COMPILE_CACHE_TOTAL.inc(outcome="miss")
        self._evict()
        return binary, "miss"

    @staticmethod
    def _touch(binary: Path) -> None:
        """Bump the entry's mtime — the LRU recency clock."""
        try:
            os.utime(binary)
        except OSError:
            pass  # read-only mount: reuse still works, recency goes stale

    def entries(self) -> List[Path]:
        """Every cached binary, oldest (least recently used) first."""
        found: List[Path] = []
        if not self.root.exists():
            return found
        for shard in self.root.iterdir():
            if not shard.is_dir():
                continue
            for item in shard.iterdir():
                if item.suffix in (".lock", ".tmp") or not item.is_file():
                    continue
                found.append(item)
        return sorted(found, key=lambda p: (p.stat().st_mtime, p.name))

    def _evict(self) -> int:
        """Drop least-recently-used binaries beyond ``capacity``."""
        entries = self.entries()
        evicted = 0
        for stale in entries[: max(0, len(entries) - self.capacity)]:
            try:
                stale.unlink()
                evicted += 1
                COMPILE_CACHE_TOTAL.inc(outcome="evict")
            except OSError:
                continue  # concurrently evicted or in use elsewhere
            lock = stale.with_name(f"{stale.name}.lock")
            try:
                lock.unlink()
            except OSError:
                pass
        return evicted


def open_compile_cache(
    spec: Optional[str], capacity: int = DEFAULT_CAPACITY
) -> Optional[CompileCache]:
    """Resolve a ``cache=`` URI option: ``off`` disables, a path relocates.

    ``None``/empty selects the default root (:func:`default_cache_root`).
    """
    if spec is not None and spec.strip().lower() == "off":
        return None
    root = spec.strip() if spec and spec.strip() else None
    return CompileCache(root, capacity=capacity)
