"""The measured-C backend: compile the emitted C harness and time the binary.

The closest this repo gets to the paper's actual loop (nvcc-compiled CUDA
timed on the 8800 GTX): each candidate's mapped program is emitted as a
self-contained C99 timing harness (:func:`repro.codegen.emit_c_harness` —
the same loop structure, guards and scratchpad copy nests the ``emit`` pass
renders, but compilable), built with the host toolchain at ``-O2``, and run;
the binary itself performs the warmup + repeat loop and reports one
nanosecond wall time per timed run, which this backend reduces to an
outlier-trimmed median.

The source is emitted with *canonical* defaults — warmup/repeat/seed travel
as ``argv``, never baked into the text — so the compiled binary is a pure
function of the mapped program, and a :class:`~repro.codegen.compile_cache.
CompileCache` (on by default; ``cache=off`` restores throwaway tempdir
builds, ``cache=DIR`` relocates, ``cache_limit=N`` bounds the LRU) lets warm
re-requests and knob-only-different candidates share one ``cc`` invocation —
across threads, processes and tuning services.

A candidate whose harness fails to *compile* is an infeasible measurement
(``Measurement.metadata["compiler_stderr"]`` carries the truncated
diagnostics), not a crashed request: one pathological mapping must never
abort a tune.  Hosts without a C toolchain still get a clean
:class:`~repro.autotune.backends.BackendUnavailable` at :meth:`prepare`
time.  Discovery is :func:`repro.codegen.toolchain.find_c_compiler`
(``cc=`` URI option → ``$CC`` → ``cc``/``gcc``/``clang``).
"""

from __future__ import annotations

import subprocess
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.codegen.compile_cache import (
    DEFAULT_CAPACITY,
    CompileCache,
    binary_key,
    open_compile_cache,
)
from repro.codegen.emit_c_exec import emit_c_harness
from repro.codegen.toolchain import find_c_compiler
from repro.compiler import CompilationSession
from repro.machine.spec import GPUSpec
from repro.telemetry import trace

from repro.autotune.backends.base import (
    BackendUnavailable,
    EvaluationBackend,
    Measurement,
    parse_timing_options,
    register_backend,
    validate_timing_knobs,
)
from repro.autotune.backends.measured_py import trimmed_median

#: ceiling on one candidate's compile or run, so a pathological mapping
#: cannot wedge a tuning worker forever
SUBPROCESS_TIMEOUT_S = 120.0

#: flags every harness is built with — part of the compile-cache key
CFLAGS = ("-O2", "-lm")

#: how much compiler stderr an infeasible measurement carries (the tail —
#: that is where cc puts the actual error)
STDERR_LIMIT = 2000


class CompilationFailed(RuntimeError):
    """``cc`` rejected a candidate's harness (carries the full stderr)."""

    def __init__(self, command: List[str], stderr: str) -> None:
        super().__init__(f"C compilation failed ({' '.join(command)})")
        self.command = command
        self.stderr = stderr


@register_backend
class MeasuredCBackend(EvaluationBackend):
    """Compile each mapping's C harness with the host toolchain and time it."""

    scheme = "measure-c"
    kind = "measured-c"

    deterministic = False
    measures_wall_clock = True

    def __init__(
        self,
        cc: Optional[str] = None,
        warmup: int = 1,
        repeat: int = 5,
        trim: float = 0.2,
        cache: Optional[str] = None,
        cache_limit: int = DEFAULT_CAPACITY,
    ) -> None:
        super().__init__()
        validate_timing_knobs(warmup, repeat, trim)
        self.cc = cc
        self.warmup = warmup
        self.repeat = repeat
        self.trim = trim
        self.cache_spec = cache
        self.cache_limit = cache_limit
        self._cache: Optional[CompileCache] = open_compile_cache(cache, cache_limit)
        self._compiler: Optional[str] = None

    @classmethod
    def from_options(cls, options: Mapping[str, str]) -> "MeasuredCBackend":
        timing = parse_timing_options(
            cls.scheme, options, extra=("cc", "cache", "cache_limit")
        )
        try:
            cache_limit = int(options.get("cache_limit", DEFAULT_CAPACITY))
        except ValueError as error:
            raise ValueError(f"backend {cls.scheme!r}: {error}") from None
        return cls(
            cc=options.get("cc"),
            cache=options.get("cache"),
            cache_limit=cache_limit,
            **timing,
        )

    # -- lifecycle ---------------------------------------------------------------
    def availability(self) -> Optional[str]:
        if find_c_compiler(self.cc) is None:
            wanted = self.cc or "$CC, cc, gcc, clang"
            return f"no C toolchain found (looked for: {wanted})"
        return None

    def prepare(self, session: CompilationSession, spec: GPUSpec, seed: int = 0) -> None:
        reason = self.availability()
        if reason is not None:
            raise BackendUnavailable(f"backend {self.uri()!r} is unavailable: {reason}")
        super().prepare(session, spec, seed=seed)
        self._compiler = find_c_compiler(self.cc)

    # -- measurement -------------------------------------------------------------
    def _measure(self, configuration: Any) -> Measurement:
        session, spec = self._require_prepared()
        if self._compiler is None:  # re-prepared lazily after pickling
            self._compiler = find_c_compiler(self.cc)
            if self._compiler is None:
                raise BackendUnavailable(
                    f"backend {self.uri()!r} lost its toolchain after pickling"
                )
        mapped = session.replay(from_stage="tiling", config=configuration)
        # knobs go through argv, so the source — and hence the cache key and
        # the compiled binary — depends only on the program and its binding
        source = emit_c_harness(mapped.program, param_values=mapped.param_binding)
        try:
            if self._cache is not None:
                key = binary_key(source, self._compiler, " ".join(CFLAGS))
                bin_path, outcome = self._cache.get_or_compile(
                    key, lambda target: self._compile(source, target)
                )
                trace.annotate(compile_cache=outcome, cc=self._compiler)
                ran = self._run_binary(bin_path)
            else:
                with tempfile.TemporaryDirectory(prefix="repro-measure-c-") as workdir:
                    bin_path = Path(workdir) / "kernel"
                    self._compile(source, bin_path)
                    trace.annotate(compile_cache="off", cc=self._compiler)
                    ran = self._run_binary(bin_path)
        except CompilationFailed as error:
            # an uncompilable mapping is this backend's "the machine cannot
            # execute it" — infeasible, with the diagnostics kept (truncated)
            stderr_tail = error.stderr[-STDERR_LIMIT:]
            measurement = Measurement.infeasible(
                self.kind, f"C compilation failed: {stderr_tail.strip().splitlines()[-1] if stderr_tail.strip() else 'no diagnostics'}"
            )
            measurement.metadata["compiler_stderr"] = stderr_tail
            measurement.metadata["compile_command"] = error.command
            return measurement
        if ran.returncode != 0:
            raise RuntimeError(
                f"measured binary exited {ran.returncode}: {ran.stderr.strip()}"
            )
        # Parse outside the ValueError→infeasible net of measure(): garbage on
        # the harness's stdout is an infrastructure failure to surface loudly,
        # never a silently "infeasible" mapping.
        try:
            times_ms: List[float] = [
                int(line) / 1e6 for line in ran.stdout.split() if line.strip()
            ]
        except ValueError:
            raise RuntimeError(
                f"measured binary produced non-numeric timing output: {ran.stdout!r}"
            ) from None
        if len(times_ms) != self.repeat:
            raise RuntimeError(
                f"measured binary reported {len(times_ms)} samples, expected {self.repeat}"
            )
        time_ms = trimmed_median(times_ms, self.trim)
        metadata: Dict[str, Any] = {
            "cycles": time_ms * 1e3 * spec.cycles_per_us,
            "shared_bytes_per_block": mapped.geometry.shared_memory_per_block_bytes,
            "compiler": self._compiler,
            "warmup": self.warmup,
            "repeat": self.repeat,
            "trim": self.trim,
            "times_ms": times_ms,
            "checksum": ran.stderr.strip(),
            "source_lines": len(source.splitlines()),
        }
        return Measurement(time_ms=time_ms, kind=self.kind, metadata=metadata)

    def _compile(self, source: str, bin_path: Path) -> None:
        """One ``cc`` invocation producing ``bin_path`` (raises on failure)."""
        with tempfile.TemporaryDirectory(prefix="repro-measure-c-src-") as srcdir:
            c_path = Path(srcdir) / "kernel.c"
            c_path.write_text(source)
            command = [self._compiler, *CFLAGS[:-1], "-o", str(bin_path), str(c_path), CFLAGS[-1]]
            try:
                started = time.perf_counter()
                compiled = subprocess.run(
                    command, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S
                )
                compile_s = time.perf_counter() - started
            except subprocess.TimeoutExpired as error:
                raise RuntimeError(
                    f"measure-c candidate exceeded {SUBPROCESS_TIMEOUT_S:.0f}s: {error}"
                ) from None
            # provenance on the enclosing measure span: how much of this
            # candidate's wall time was the C toolchain, not the kernel
            trace.annotate(compile_s=round(compile_s, 6))
            if compiled.returncode != 0:
                raise CompilationFailed(command, compiled.stderr)

    def _run_binary(self, bin_path: Path) -> "subprocess.CompletedProcess[str]":
        """Run a compiled harness with this request's knobs on ``argv``."""
        command = [str(bin_path), str(self.warmup), str(self.repeat), str(self._seed)]
        try:
            return subprocess.run(
                command, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S
            )
        except subprocess.TimeoutExpired as error:
            # the bounded-time promise: a pathological mapping errors
            # cleanly like every other infrastructure failure here
            raise RuntimeError(
                f"measure-c candidate exceeded {SUBPROCESS_TIMEOUT_S:.0f}s: {error}"
            ) from None

    # -- identity ----------------------------------------------------------------
    def signature(self) -> Dict[str, Any]:
        # the compiler *request* (cc=...) fingerprints; the resolved absolute
        # path does not — two hosts with gcc at different paths share entries.
        # Cache location/limit never fingerprint: where a binary came from
        # cannot change what it measures.
        return {
            "scheme": self.scheme,
            "cc": self.cc,
            "warmup": self.warmup,
            "repeat": self.repeat,
            "trim": self.trim,
        }

    def uri(self) -> str:
        options = [f"warmup={self.warmup}", f"repeat={self.repeat}", f"trim={self.trim}"]
        if self.cache_spec is not None:
            options.append(f"cache={self.cache_spec}")
        if self.cache_limit != DEFAULT_CAPACITY:
            options.append(f"cache_limit={self.cache_limit}")
        if self.cc:
            options.insert(0, f"cc={self.cc}")
        return f"{self.scheme}:{','.join(options)}"

    def describe(self) -> str:
        compiler = find_c_compiler(self.cc)
        status = compiler if compiler else "UNAVAILABLE: no toolchain"
        return f"compile + time the emitted C harness ({status})"
