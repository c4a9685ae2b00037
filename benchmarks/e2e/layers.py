"""Per-layer numbers of the traced run: probes from outside + the span roll-up.

Two sources, both without touching the program's source:

* :func:`run_probes` calls each module's public functions directly, on the
  same kernels the workloads use, inside harness spans.  A probe is the
  layer's cost in isolation (``tiling.tile_search_ms``, ``autotune.store.
  get_us.log`` ...) and runs in every traced run, whatever the workload, so
  one traced run always holds the whole layer picture.
* :func:`rollup` reads the flushed trace back through the program's own
  ``load_trace``/``hotspots`` and reports what each layer cost *inside this
  workload's requests* (``compiler.tiling_ms`` per request, ``autotune.
  search_self_ms`` ...).  A layer that idles on the path reads 0 — that is
  the prediction "no move on this workload" made checkable.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Any, Callable, Dict, List, Sequence

from repro.autotune import (
    ConfigurationSpace,
    TuningCache,
    autotune,
    open_store,
    resolve_strategy,
)
from repro.autotune.cache import fingerprint
from repro.autotune.store import CACHE_VERSION
from repro.codegen import emit_c, emit_python_source, emit_python_source_vectorized
from repro.compiler import CompilationSession
from repro.core.options import MappingOptions
from repro.distmodel.gemm import SummaMapping, gemm_schedule
from repro.fleet.ring import HashRing
from repro.kernels import get_kernel
from repro.machine.executor import simulate_gpu
from repro.machine.spec import GEFORCE_8800_GTX, WSE2_GRID
from repro.runtime.interpreter import run_program
from repro.scratchpad import ScratchpadManager, ScratchpadOptions
from repro.service import TuneRequest, TuningClient, TuningServer
from repro.telemetry import trace
from repro.telemetry.history import HistoryStore
from repro.tiling.bands import analyze_bands
from repro.tiling.tile_search import TileSearchProblem, search_tile_sizes

import checks
from spans import Recorder
from workloads import COLD_SPACE, Key

#: store URI per backend, relative to the probe directory (None: in memory)
STORE_URIS = {
    "memory": None,
    "json": "{}/probe.json",
    "dir": "dir:{}/probe-shards",
    "log": "log:{}/probe.log",
}


class Probes:
    """Times public entry points; every sample is also a harness span."""

    def __init__(self, recorder: Recorder, workdir: str, entries: int) -> None:
        self.rec = recorder
        self.dir = os.path.join(workdir, "probes")
        os.makedirs(self.dir, exist_ok=True)
        #: entries every store holds when probed (= a warm-mixed store's size)
        self.entries = entries
        self.values: Dict[str, float] = {}

    def time(self, name: str, fn: Callable[[], Any], repeat: int = 3, batch: int = 1,
             scale: float = 1e3) -> Any:
        """Median of ``repeat`` timings of ``batch`` calls, in ms (``scale=1e6``: µs)."""
        samples = []
        result = None
        for _ in range(repeat):
            with self.rec.span(name, kind="probe"):
                started = time.perf_counter()
                for _ in range(batch):
                    result = fn()
                samples.append((time.perf_counter() - started) / batch)
        self.values[name] = scale * statistics.median(samples)
        return result

    # -- compiler side -----------------------------------------------------------------
    def compiler(self) -> None:
        matmul = get_kernel("matmul")
        program = matmul.build(m=64, n=64, k=64)
        self.time("kernels.build_ms", lambda: matmul.build(m=64, n=64, k=64), repeat=5, batch=5)
        self.time(
            "polyhedral.dependence_ms",
            lambda: program.dependence_analyzer().dependences(),
        )
        self.time("tiling.bands_ms", lambda: analyze_bands(program))

        session = CompilationSession(program)
        self.time("compiler.analysis_probe_ms", lambda: CompilationSession(program).analysis())
        space = self.time(
            "autotune.space_build_ms",
            lambda: ConfigurationSpace(program, space_options=COLD_SPACE, session=session),
        )
        self.time(
            "autotune.fingerprint_ms",
            lambda: fingerprint(
                program, GEFORCE_8800_GTX, None, MappingOptions(),
                resolve_strategy("pruned").signature(), space.describe(),
            ),
        )
        problem = TileSearchProblem(
            cost_model=space.cost_model(16, 64),
            memory_limit_bytes=float(space.memory_limit(16)),
            min_parallelism=64,
        )
        self.time("tiling.tile_search_ms", lambda: search_tile_sizes(problem), repeat=2)

        # the passes after tiling, on the small check program every hybrid
        # spot-check and every winner check replays through
        check = matmul.build_check()
        manager = ScratchpadManager(ScratchpadOptions(target="gpu", param_binding={}))
        plan = self.time("scratchpad.plan_ms", lambda: manager.plan(check))
        self.time("scratchpad.transform_ms", lambda: manager.transform(check, plan))
        self.values["scratchpad.footprint_bytes"] = float(plan.total_footprint_bytes())

        check_session = CompilationSession(check)
        mapped = check_session.compile()
        config = ConfigurationSpace(check, session=check_session).seed_configuration()
        self.time(
            "compiler.replay_ms",
            lambda: check_session.replay(from_stage="tiling", config=config),
        )
        self.time(
            "machine.simulate_gpu_us",
            lambda: simulate_gpu(
                "probe", mapped.workload, mapped.geometry, mapped.global_sync_rounds
            ),
            batch=20,
            scale=1e6,
        )
        source = self.time("codegen.emit_py_ms", lambda: emit_python_source(mapped.program))
        self.time(
            "codegen.emit_py_vec_ms", lambda: emit_python_source_vectorized(mapped.program)
        )
        self.time("codegen.emit_c_ms", lambda: emit_c(mapped.program))
        self.values["codegen.emitted_bytes"] = float(len(source.encode("utf-8")))
        inputs = checks.seeded_inputs(check, 0)
        self.time(
            "runtime.interpret_ms",
            lambda: run_program(check, inputs=inputs, count_accesses=False),
        )
        self.time(
            "distmodel.gemm_schedule_us",
            lambda: gemm_schedule(64, 64, 64, SummaMapping(grid_p=4, mt=8, nt=8, kt=8), WSE2_GRID),
            batch=50,
            scale=1e6,
        )

    # -- telemetry ---------------------------------------------------------------------
    def telemetry(self) -> Any:
        """History append cost and what tracing adds to a cold request."""
        jacobi = get_kernel("jacobi1d")

        def tune() -> Any:
            return autotune(jacobi.build(size=1024), cache=None, space_options=COLD_SPACE)

        report = tune()
        history = HistoryStore(os.path.join(self.dir, "history.jsonl"))
        self.time(
            "telemetry.history_append_us",
            lambda: history.append(report.history_record),
            repeat=5,
            batch=10,
            scale=1e6,
        )
        plain: List[float] = []
        traced: List[float] = []
        for _ in range(5):  # alternating, so drift hits both sides alike
            started = time.perf_counter()
            tune()
            plain.append(time.perf_counter() - started)
            with trace.capture_trace():
                started = time.perf_counter()
                tune()
                traced.append(time.perf_counter() - started)
        untraced = statistics.median(plain)
        self.values["telemetry.trace_overhead_share"] = (
            statistics.median(traced) - untraced
        ) / untraced
        return report

    # -- stores ------------------------------------------------------------------------
    def stores(self, report: Any) -> None:
        value = report.to_dict()
        keys = [f"{index:064x}" for index in range(self.entries + 16)]
        filled, fresh = keys[: self.entries], keys[self.entries:]
        for backend, template in STORE_URIS.items():
            uri = template.format(self.dir) if template else None
            if backend == "json":
                # the legacy v2 document, written the way an old writer left it:
                # filling it put by put rewrites the whole file every time
                with open(uri, "w", encoding="utf-8") as handle:
                    json.dump(
                        {"version": CACHE_VERSION, "entries": {key: value for key in filled}},
                        handle,
                    )
                store = open_store(uri)
            else:
                store = open_store(uri)
                for key in filled:
                    store.put(key, value)
            unused = iter(fresh)
            self.time(
                f"autotune.store.put_us.{backend}",
                lambda: store.put(next(unused), value),
                repeat=5,
                scale=1e6,
            )
            self.time(
                f"autotune.store.get_us.{backend}",
                lambda: [store.get(key) for key in filled[:50]],
                repeat=5,
                scale=1e6 / 50,
            )
            if backend == "memory":
                continue
            self.time(
                f"autotune.store.reopen_ms.{backend}",
                lambda: open_store(uri).get(filled[-1]),
            )
            stats = store.stats()
            self.values[f"autotune.store.bytes_per_entry.{backend}"] = (
                stats["bytes"] / stats["entries"]
            )
            if backend == "log":
                self.time("autotune.store.compact_ms.log", store.compact, repeat=1)

    # -- service and fleet -------------------------------------------------------------
    def service(self, report: Any) -> None:
        payload = Key(get_kernel("matmul"), {"m": 16, "n": 16, "k": 16}).payload(seed=0)
        self.time("service.resolve_ms", lambda: TuneRequest.from_dict(payload).resolve())
        stored = report.to_dict()
        self.time(
            "service.protocol_encode_us",
            lambda: (json.dumps(payload), json.dumps(stored)),
            repeat=5,
            batch=20,
            scale=1e6,
        )
        server = TuningServer(
            port=0, executor="thread", max_workers=1, cache=TuningCache(None)
        ).start()
        try:
            client = TuningClient(server.url)
            client.healthz()
            self.time("service.healthz_rtt_ms", client.healthz, repeat=5, batch=5)
            ring = HashRing([server.url, "http://127.0.0.1:1"])
            self.time(
                "fleet.ring_home_us",
                lambda: ring.home(report.fingerprint),
                repeat=5,
                batch=200,
                scale=1e6,
            )
        finally:
            server.stop(drain_timeout=10.0)


def run_probes(recorder: Recorder, workdir: str, entries: int) -> Dict[str, float]:
    probes = Probes(recorder, workdir, entries)
    probes.compiler()
    report = probes.telemetry()
    probes.stores(report)
    probes.service(report)
    return probes.values


# -- what the workload's own requests spent per layer --------------------------------------
PASS_METRICS = {
    "analysis": "compiler.analysis_ms",
    "tiling": "compiler.tiling_ms",
    "scratchpad": "compiler.scratchpad_ms",
    "mapping": "compiler.mapping_ms",
    "lower-py": "compiler.lower_py_ms",
    "lower-py-vec": "compiler.lower_py_ms",
}


def rollup(roots: Sequence[Any]) -> Dict[str, float]:
    """Per-request layer costs from the trace file's span trees.

    Self time comes from :func:`repro.telemetry.trace.hotspots` — the same
    arithmetic the ``python -m repro.autotune trace`` hotspot table prints.
    """
    requests = [root for root in roots if root.kind == "bench.request"]
    count = len(requests)
    if not count:
        return {}
    rows = trace.hotspots(requests, top=1 << 30)
    by_name = {(row["kind"], row["name"]): row for row in rows}
    wall_ms = sum(item.duration_ms for item in requests)
    values = {name: 0.0 for name in PASS_METRICS.values()}
    for stage, metric in PASS_METRICS.items():
        values[metric] += by_name.get(("pass", stage), {}).get("total_ms", 0.0) / count
    values["compiler.stage_runs.analysis"] = (
        by_name.get(("pass", "analysis"), {}).get("count", 0) / count
    )
    values["autotune.candidates"] = (
        by_name.get(("candidate", "candidate"), {}).get("count", 0) / count
    )
    values["autotune.search_self_ms"] = (
        by_name.get(("search", "search"), {}).get("self_ms", 0.0) / count
    )
    values["autotune.spot_check_ms"] = (
        by_name.get(("check", "spot-check"), {}).get("total_ms", 0.0) / count
    )
    # measure spans share one name; their backend travels as an attribute
    measured: Dict[str, List[float]] = {}
    for item, _depth in trace.iter_spans(requests):
        if item.kind == "measure":
            measured.setdefault(item.attrs.get("backend", "model"), []).append(item.duration_ms)
    for backend in ("model", "measure-py"):
        samples = measured.get(backend, [])
        values[f"autotune.backends.measure_ms.{backend}"] = (
            statistics.fmean(samples) if samples else 0.0
        )
    harness_self = sum(row["self_ms"] for row in rows if row["kind"] == "bench.request")
    values["harness.self_time_coverage"] = sum(row["self_ms"] for row in rows) / wall_ms
    values["harness.unattributed_share"] = harness_self / wall_ms
    return values


def kind_summary(roots: Sequence[Any]) -> Dict[str, Dict[str, float]]:
    """The per-kind roll-up the ``/status`` job summary uses, over request trees."""
    return trace.summarize_spans([root for root in roots if root.kind == "bench.request"])
