"""The four request paths of the end-to-end benchmark.

Each workload is a closed loop driven entirely by ``--seed``: the seed fixes
the kernel order, the key set, the hit/miss sequence, the first-contact
server and ``autotune(seed=...)``.  Why these four (README.md has the layer →
metric table):

``cold-model``
    The paper's compile path.  No tuning or artifact cache is configured, so
    the polyhedral → tiling → scratchpad → mapping passes and the search do
    all the work; store, codegen, HTTP and fleet do none.
``cold-hybrid``
    The same search layer used differently — a measured re-rank beside model
    pricing — and the only path where codegen (``lower-py``/``lower-py-vec``),
    backend measurement and the runtime interpreter block the answer.
``warm-mixed``
    Library hits beside a few misses on an append log that is re-opened on
    every request (the URI string is passed each call, as the CLI does):
    analysis-on-hit plus store replay dominate, passes after ``analysis``
    must not run at all on hits.
``serve-fleet``
    Two in-process servers on a redirect ring, two client threads: long-lived
    store handles, HTTP handling, JSON encode, GIL/lock contention and the
    fleet hop; compiler passes beyond analysis idle.

"Cold" means no tuning/artifact cache is configured.  In-process memoisation
across requests still counts — ``autotune.cold_first_round_s`` next to
``autotune.cold_later_rounds_s`` makes it visible instead of hiding it in a
median.

Latencies are stratified by kernel family.  A request's cost differs 20×
between a ``jacobi1d`` and a ``distributed-gemm`` key, so a pooled median sits
wherever the realised mix puts it.  Every latency metric is built from
per-family medians instead — their geometric mean on the cold paths (one
request per kernel per round), their request-share-weighted mean on the warm
paths — and keys are visited in seeded shuffles of whole rounds, so the mix
itself cannot drift either.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.autotune import SpaceOptions, TuningCache, autotune, open_store
from repro.kernels import get_kernel
from repro.service import TuneRequest, TuningClient, TuningServer
from repro.telemetry.history import percentile
from repro.telemetry.metrics import METRICS

import checks
from spans import Recorder

KernelSpec = Tuple[str, Dict[str, int]]

#: one launch geometry, two tile candidates: the ISSUE's (64, 128) space halved
#: so three rounds of every cold kernel fit the driver's total-run-time cap
COLD_SPACE = SpaceOptions(
    thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2
)
#: warm keys only need *a* stored report; the cheapest space keeps set-up short
WARM_SPACE = SpaceOptions(
    thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=1
)
HYBRID_BACKEND = "hybrid:model>measure-py?top=4"
#: SUMMA sizes are multiples of the 16-wide PE grid
GEMM_DIMS = tuple(range(32, 257, 16))


@dataclass(frozen=True)
class Scale:
    """How much work one run does (``SMOKE`` is the self-test's jacobi1d-only cut)."""

    cold_model: Tuple[KernelSpec, ...]
    cold_hybrid: Tuple[KernelSpec, ...]
    #: warm keys at fixed sizes (their hit cost is analysis, not size)
    warm_fixed: Tuple[KernelSpec, ...]
    warm_jacobi: int
    warm_gemm: int
    fillers: int
    min_rounds: int
    setup_repeats: int
    miss_share: float = 0.10

    @property
    def warm_keys(self) -> int:
        return len(self.warm_fixed) + self.warm_jacobi + self.warm_gemm


FULL = Scale(
    cold_model=(
        ("matmul", {"m": 64, "n": 64, "k": 64}),
        ("mpeg4_me", {"height": 16, "width": 16, "window": 2}),
        ("jacobi1d", {"size": 1024}),
    ),
    cold_hybrid=(
        ("matmul", {"m": 32, "n": 32, "k": 32}),
        ("jacobi1d", {"size": 1024}),
    ),
    warm_fixed=(
        ("matmul", {"m": 8, "n": 8, "k": 8}),
        ("matmul", {"m": 16, "n": 16, "k": 16}),
        ("matmul", {"m": 32, "n": 32, "k": 32}),
    ),
    warm_jacobi=13,
    warm_gemm=16,
    fillers=256,
    min_rounds=3,
    setup_repeats=3,
)
SMOKE = Scale(
    cold_model=(("jacobi1d", {"size": 256}),),
    cold_hybrid=(("jacobi1d", {"size": 256}),),
    warm_fixed=(),
    warm_jacobi=3,
    warm_gemm=0,
    fillers=8,
    min_rounds=2,
    setup_repeats=1,
    miss_share=0.0,
)


@dataclass
class Phase:
    """What one timed phase produced."""

    #: request class → kernel family → latencies in seconds.  Classes are
    #: ``cold`` on the cold paths, ``hit``/``miss`` on warm-mixed and
    #: ``direct``/``redirect`` on serve-fleet.
    samples: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    wall_s: float = 0.0
    #: operations completed: candidate evaluations (cold) or requests (warm)
    ops: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: per-layer numbers only the workload itself can know (shares, counts, tails)
    layer: Dict[str, float] = field(default_factory=dict)

    def record(self, klass: str, family: str, seconds: float) -> None:
        self.samples.setdefault(klass, {}).setdefault(family, []).append(seconds)

    def pooled(self, klass: str) -> List[float]:
        return [s for family in self.samples.get(klass, {}).values() for s in family]

    def family_medians_ms(self, klass: str) -> Dict[str, float]:
        return {
            family: 1e3 * statistics.median(samples)
            for family, samples in sorted(self.samples.get(klass, {}).items())
        }

    def geomean_p50_ms(self, klass: str) -> Tuple[float, int]:
        """Geometric mean over families of each family's median, and the sample count."""
        medians = self.family_medians_ms(klass)
        if not medians:
            return 0.0, 0
        return statistics.geometric_mean(medians.values()), len(self.pooled(klass))

    def mix_p50_ms(self, klass: str) -> Tuple[float, int]:
        """Family medians weighted by each family's share of the requests.

        The latency of a request drawn from the mix, with a median — not a
        mean — standing for each family.  Under two-client contention a light
        request either runs alone or waits out a heavy one, so its family's
        median moves ±40 % between runs; a geometric mean would hand that a
        third of the metric, the request share hands it what it weighs.
        """
        families = self.samples.get(klass, {})
        total = len(self.pooled(klass))
        if not total:
            return 0.0, 0
        medians = self.family_medians_ms(klass)
        return sum(medians[f] * len(families[f]) for f in families) / total, total


def tail_percentile(samples: Sequence[float], wanted: float = 99.0) -> Tuple[float, float]:
    """``(q, value)``: the ``wanted`` percentile when at least ten samples lie
    beyond it, else the highest percentile that still has ten beyond it (the
    median when fewer than 20 samples)."""
    count = len(samples)
    supported = 100.0 * (count - 10) / count if count >= 20 else 50.0
    q = min(wanted, supported)
    return q, percentile(samples, q)


def counter_value(name: str, **labels: Any) -> float:
    metric = METRICS.get(name)
    return metric.value(**labels) if metric is not None else 0.0


def balanced_stream(rng: random.Random, items: Sequence[Any]) -> Iterator[Any]:
    """``items`` forever, in seeded shuffles of whole rounds (an exact mix)."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


class Workload:
    """Set-up / timed phase / tear-down of one request path."""

    name = ""
    #: the ISSUE's name for what each generic end-to-end metric means here
    aliases: Dict[str, str] = {}
    #: request classes behind ``request_p50_ms`` and ``slow_path_p50_ms``
    primary_class = ""
    slow_class = ""

    def __init__(self, seed: int, workdir: str, recorder: Recorder, scale: Scale = FULL) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rec = recorder
        self.scale = scale
        self.rng = random.Random(seed)

    def setup(self) -> float:
        """Everything before the timed phase; returns its cost in seconds.

        The repeatable part (fresh directories, store prefill, server start,
        warm-up) runs ``scale.setup_repeats`` times and contributes its
        median; work that is itself a cold tuning run (the warm key set) is
        done once and added, because repeating it would triple the run.
        """
        started = time.perf_counter()
        self.prepare_once()
        once_s = time.perf_counter() - started
        repeat_s = []
        for attempt in range(self.scale.setup_repeats):
            if attempt:
                self.teardown_repeatable()
            started = time.perf_counter()
            self.prepare_repeatable(os.path.join(self.workdir, f"setup{attempt}"))
            repeat_s.append(time.perf_counter() - started)
        return once_s + statistics.median(repeat_s)

    def prepare_once(self) -> None:
        pass

    def prepare_repeatable(self, directory: str) -> None:
        raise NotImplementedError

    def teardown_repeatable(self) -> None:
        pass

    def close(self) -> None:
        self.teardown_repeatable()

    def run(self, seconds: float) -> Phase:
        raise NotImplementedError

    def primary(self, phase: Phase) -> Tuple[float, int]:
        return phase.mix_p50_ms(self.primary_class)

    def slow(self, phase: Phase) -> Tuple[float, int]:
        return phase.mix_p50_ms(self.slow_class)


# -- cold paths ------------------------------------------------------------------------
class ColdWorkload(Workload):
    """Library ``autotune(cache=None)`` over a kernel list, seeded-shuffled rounds."""

    aliases = {"request_p50_ms": "cold_tune_s, in ms", "ops_per_s": "evals_per_s"}
    primary_class = "cold"
    backend = "model:"
    provenance = "model"
    check_correctness = False
    #: the :class:`Scale` field holding this workload's kernel list
    kernel_list = ""

    def prepare_repeatable(self, directory: str) -> None:
        self.kernels = []
        for name, sizes in getattr(self.scale, self.kernel_list):
            kernel = get_kernel(name)
            # interpreter reference for the winner check, computed outside the timed phase
            self.kernels.append((kernel, sizes, checks.WinnerOutputCheck(kernel, self.seed)))
        # warm-up: first-use imports (scipy's SLSQP) must not land in round one
        autotune(get_kernel("jacobi1d").build(size=64), cache=None, space_options=WARM_SPACE)

    def tune(self, kernel: Any, sizes: Dict[str, int]) -> Any:
        return autotune(
            kernel.build(**sizes),
            cache=None,
            backend=self.backend,
            strategy="pruned",
            space_options=COLD_SPACE,
            seed=self.seed,
            check_correctness=self.check_correctness,
            check_program=kernel.build_check() if self.check_correctness else None,
        )

    def run(self, seconds: float) -> Phase:
        phase = Phase()
        memo_before = {
            outcome: counter_value("repro_measure_memo_total", outcome=outcome)
            for outcome in ("hit", "miss")
        }
        reports: List[Tuple[Any, checks.WinnerOutputCheck]] = []
        round_seconds: List[float] = []
        started = time.perf_counter()
        deadline = started + seconds
        while len(round_seconds) < self.scale.min_rounds or time.perf_counter() < deadline:
            order = list(self.kernels)
            self.rng.shuffle(order)
            round_started = time.perf_counter()
            for kernel, sizes, check in order:
                with self.rec.span(kernel.name, kind="bench.request", request=phase.attempted):
                    begun = time.perf_counter()
                    report = self.tune(kernel, sizes)
                    phase.record("cold", kernel.name, time.perf_counter() - begun)
                phase.attempted += 1
                phase.ops += report.num_evaluations
                reports.append((report, check))
            round_seconds.append(time.perf_counter() - round_started)
        phase.wall_s = time.perf_counter() - started

        for report, check in reports:
            failures = checks.check_cold_report(report, self.provenance)
            failures += check.run(report.best.configuration)
            if failures:
                phase.failures.append("; ".join(failures))

        hits, misses = (
            counter_value("repro_measure_memo_total", outcome=outcome) - memo_before[outcome]
            for outcome in ("hit", "miss")
        )
        rhos = [
            report.history_record.rho
            for report, _check in reports
            if report.history_record.rho is not None
        ]
        # the best *modelled* time found per kernel: deterministic, so a rise
        # means a cheaper search was bought with a worse mapping
        best_model = {
            report.kernel_name: min(
                (r.measurement.metadata if r.measurement else {}).get("model_time_ms", r.time_ms)
                for r in report.results
                if r.feasible
            )
            for report, _check in reports
        }
        phase.layer.update(
            {
                "autotune.backends.memo_hit_share": hits / (hits + misses) if hits + misses else 0.0,
                "autotune.backends.rho": statistics.fmean(rhos) if rhos else 0.0,
                "autotune.cold_first_round_s": round_seconds[0],
                "autotune.cold_later_rounds_s": statistics.median(round_seconds[1:])
                if len(round_seconds) > 1
                else 0.0,
                "autotune.winner_time_ms": statistics.geometric_mean(best_model.values()),
            }
        )
        return phase

    def primary(self, phase: Phase) -> Tuple[float, int]:
        return phase.geomean_p50_ms("cold")

    def slow(self, phase: Phase) -> Tuple[float, int]:
        """The slowest kernel's median — the path one dominant pass decides."""
        medians = phase.family_medians_ms("cold")
        family = max(medians, key=medians.__getitem__)
        return medians[family], len(phase.samples["cold"][family])


class ColdModel(ColdWorkload):
    name = "cold-model"
    kernel_list = "cold_model"


class ColdHybrid(ColdWorkload):
    name = "cold-hybrid"
    backend = HYBRID_BACKEND
    provenance = "measured-py"
    check_correctness = True
    kernel_list = "cold_hybrid"


# -- warm paths ------------------------------------------------------------------------
@dataclass
class Key:
    kernel: Any
    sizes: Dict[str, int]
    fingerprint: str = ""
    stored: Dict[str, Any] = field(default_factory=dict)

    def payload(self, seed: int) -> Dict[str, Any]:
        """The same request as it travels to a server."""
        return TuneRequest(
            kernel=self.kernel.name,
            sizes=dict(self.sizes),
            seed=seed,
            space={
                "thread_counts": list(WARM_SPACE.thread_counts),
                "block_counts": list(WARM_SPACE.block_counts),
                "tile_candidates_per_geometry": WARM_SPACE.tile_candidates_per_geometry,
            },
        ).to_dict()


class WarmWorkload(Workload):
    """Key-set generation shared by the two warm paths."""

    def draw_keys(self) -> List[Key]:
        scale = self.scale
        keys = [Key(get_kernel(name), dict(sizes)) for name, sizes in scale.warm_fixed]
        for size in self.rng.sample(range(256, 2049, 8), scale.warm_jacobi):
            keys.append(Key(get_kernel("jacobi1d"), {"size": size}))
        # every (m, n, k) is used at most once per run: the first ones become
        # warm keys, the rest feed the never-seen-size misses
        triples = list(itertools.product(GEMM_DIMS, repeat=3))
        self.rng.shuffle(triples)
        self.unseen_gemm = iter(triples)
        keys.extend(self.next_gemm_key() for _ in range(scale.warm_gemm))
        return keys

    def next_gemm_key(self) -> Key:
        m, n, k = next(self.unseen_gemm)
        return Key(get_kernel("distributed-gemm"), {"m": m, "n": n, "k": k})

    def library_request(self, key: Key, cache: Any) -> Any:
        return autotune(
            key.kernel.build(**key.sizes),
            cache=cache,
            space_options=WARM_SPACE,
            seed=self.seed,
            grid=key.kernel.grid,
        )

    def hit_layers(self, phase: Phase, klass: str) -> None:
        hits = phase.pooled(klass)
        if hits:
            phase.layer["autotune.warm_hit_p90_ms"] = 1e3 * tail_percentile(hits, 90.0)[1]
            phase.layer["autotune.warm_hit_p99_ms"] = 1e3 * tail_percentile(hits)[1]
        for family, median in phase.family_medians_ms(klass).items():
            phase.layer[f"autotune.warm_hit_ms.{family}"] = median


class WarmMixed(WarmWorkload):
    name = "warm-mixed"
    aliases = {
        "request_p50_ms": "warm_hit_p50_ms",
        "slow_path_p50_ms": "miss_put_p50_ms",
        "ops_per_s": "requests_per_s",
    }
    primary_class = "hit"

    def prepare_once(self) -> None:
        self.keys = self.draw_keys()
        for key in self.keys:
            report = self.library_request(key, cache=None)
            key.fingerprint, key.stored = report.fingerprint, report.to_dict()

    def prepare_repeatable(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        self.uri = "log:" + os.path.join(directory, "cache.log")
        store = open_store(self.uri)
        filler = self.keys[0].stored
        for index in range(self.scale.fillers):
            # a fleet-aged file: entries under fingerprints nobody asks for
            digest = hashlib.sha256(f"filler-{self.seed}-{index}".encode()).hexdigest()
            store.put(digest, filler)
        cache = TuningCache(self.uri)
        for key in self.keys:
            cache.put(key.fingerprint, key.stored)
        self.library_request(self.keys[0], self.uri)  # warm-up hit

    def run(self, seconds: float) -> Phase:
        phase = Phase()
        answered: List[Tuple[Optional[Key], Any, float]] = []
        compiles = METRICS.get("repro_compiles_total")
        lookups = ("repro_cache_hits_total", "repro_cache_misses_total")
        looked_up = {name: counter_value(name) for name in lookups}
        hit_keys = balanced_stream(self.rng, self.keys)
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            is_miss = self.rng.random() < self.scale.miss_share
            key = self.next_gemm_key() if is_miss else next(hit_keys)
            klass = "miss" if is_miss else "hit"
            before = compiles.value()
            with self.rec.span(klass, kind="bench.request", request=phase.attempted):
                begun = time.perf_counter()
                # the URI *string*: the store is re-opened on every request
                report = self.library_request(key, self.uri)
                elapsed = time.perf_counter() - begun
            phase.record(klass, key.kernel.name, elapsed)
            phase.attempted += 1
            answered.append((None if is_miss else key, report, compiles.value() - before))
        phase.wall_s = time.perf_counter() - started
        phase.ops = phase.attempted

        on_hits = 0.0
        for key, report, compiled in answered:
            if key is None:
                failures = checks.check_cold_report(report, "model-dist")
            else:
                on_hits += compiled
                failures = checks.check_hit(report, key.stored, compiled)
            if failures:
                phase.failures.append("; ".join(failures))
        hits, misses = (counter_value(name) - looked_up[name] for name in lookups)
        phase.failures += checks.check_counter_matches(
            "cache hits", len(phase.pooled("hit")), hits
        )
        phase.layer["autotune.cache.hit_share"] = hits / (hits + misses) if hits + misses else 0.0
        phase.layer["autotune.compiles_on_hit"] = on_hits
        self.hit_layers(phase, "hit")
        return phase

    def slow(self, phase: Phase) -> Tuple[float, int]:
        # a miss-free mix (the smoke scale) still has to report its slow path
        return phase.mix_p50_ms("miss" if "miss" in phase.samples else "hit")


class ServeFleet(WarmWorkload):
    name = "serve-fleet"
    aliases = {
        "request_p50_ms": "warm_hit_p50_ms (direct)",
        "slow_path_p50_ms": "redirect_hit_p50_ms",
        "ops_per_s": "requests_per_s",
    }
    primary_class = "direct"
    slow_class = "redirect"
    clients = 2  # = nproc of the reference box
    servers: List[TuningServer] = []

    def prepare_once(self) -> None:
        self.keys = self.draw_keys()

    def prepare_repeatable(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        self.servers = [
            TuningServer(
                port=0,
                executor="thread",
                max_workers=2,
                cache="dir:" + os.path.join(directory, "cache"),
                history=os.path.join(directory, "history.jsonl"),
            ).start()
            for _ in range(2)
        ]
        urls = [server.url for server in self.servers]
        for server in self.servers:
            server.configure_fleet(urls, mode="redirect")
        for url in urls:
            TuningClient(url).healthz()

    def teardown_repeatable(self) -> None:
        for server in self.servers:
            server.stop(drain_timeout=30.0)
        self.servers = []

    def setup(self) -> float:
        """Adds the one thing that needs live servers: tuning the keys *through* them."""
        cost = super().setup()
        started = time.perf_counter()
        self.tune_keys_through_fleet()
        return cost + time.perf_counter() - started

    def tune_keys_through_fleet(self) -> None:
        clients = [TuningClient(server.url) for server in self.servers]
        status = {"method": "GET", "endpoint": "/status"}
        status_before = counter_value("repro_http_requests_total", **status)
        # round-robin first contact, so about half the cold jobs are redirected:
        # the ring, not the client, must make each key tune exactly once.  One
        # at a time — four tuning threads on two cores only fight over the GIL.
        for index, key in enumerate(self.keys):
            report = clients[index % len(clients)].tune(key.payload(self.seed), timeout=120.0)
            key.fingerprint, key.stored = report.fingerprint, report.to_dict()
        tuning_runs = sum(client.cache_stats()["server"]["tuning_runs"] for client in clients)
        distinct = len({key.fingerprint for key in self.keys})
        self.exactly_once_excess = tuning_runs - distinct
        self.setup_failures = checks.check_exactly_once(tuning_runs, distinct)
        polls = counter_value("repro_http_requests_total", **status) - status_before
        self.status_round_trips = polls / len(self.keys)

    def run(self, seconds: float) -> Phase:
        phase = Phase(failures=list(self.setup_failures))
        urls = [server.url for server in self.servers]
        redirects_before = counter_value("repro_fleet_redirects_total", mode="redirect")
        compiles_before = counter_value("repro_compiles_total")
        lock = threading.Lock()
        answered: List[Tuple[Key, Any]] = []
        errors: List[str] = []
        started = time.perf_counter()
        deadline = started + seconds

        def client_loop(index: int) -> None:
            clients = [TuningClient(url) for url in urls]
            # every key meets every server once per round: an exact key mix
            # and exactly half the requests landing on a non-home server
            visits = balanced_stream(
                random.Random(self.seed * 1000 + index),
                [(key, first) for key in self.keys for first in clients],
            )
            while time.perf_counter() < deadline:
                key, first = next(visits)
                payload = key.payload(self.seed)
                with lock:
                    request_id = phase.attempted
                    phase.attempted += 1
                try:
                    with self.rec.span("fleet-hit", kind="bench.request", request=request_id):
                        begun = time.perf_counter()
                        handle = first.submit(payload)
                        report = handle.result(timeout=60.0)
                        elapsed = time.perf_counter() - begun
                except Exception as error:  # boundary: a failed request is a counted failure
                    with lock:
                        errors.append(f"{key.kernel.name}: {type(error).__name__}: {error}")
                    continue
                # redirected: the answer's owning node is not the server first contacted
                klass = "direct" if handle.client.url == first.url else "redirect"
                with lock:
                    phase.record(klass, key.kernel.name, elapsed)
                    answered.append((key, report))

        threads = [
            threading.Thread(target=client_loop, args=(index,)) for index in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.wall_s = time.perf_counter() - started
        phase.ops = len(answered)
        phase.failures += errors

        for key, report in answered:
            failures = checks.check_hit(report, key.stored, 0)
            if failures:
                phase.failures.append("; ".join(failures))
        compiled = counter_value("repro_compiles_total") - compiles_before
        if compiled:
            phase.failures.append(f"{compiled:g} pipeline compiles during a hit-only phase")
        redirected = len(phase.pooled("redirect"))
        phase.failures += checks.check_counter_matches(
            "fleet redirects",
            redirected,
            counter_value("repro_fleet_redirects_total", mode="redirect") - redirects_before,
        )
        phase.layer.update(
            {
                "autotune.compiles_on_hit": compiled,
                "autotune.cache.hit_share": 1.0 if answered else 0.0,
                "service.exactly_once_excess": self.exactly_once_excess,
                "service.status_round_trips": self.status_round_trips,
                "fleet.redirect_share": redirected / len(answered) if answered else 0.0,
                "fleet.redirect_extra_ms": phase.mix_p50_ms("redirect")[0]
                - phase.mix_p50_ms("direct")[0],
            }
        )
        for klass, metric in (
            ("direct", "service.direct_hit_p99_ms"),
            ("redirect", "fleet.redirect_hit_p99_ms"),
        ):
            if phase.pooled(klass):
                phase.layer[metric] = 1e3 * tail_percentile(phase.pooled(klass))[1]
        self.hit_layers(phase, "direct")
        return phase


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (ColdModel, ColdHybrid, WarmMixed, ServeFleet)
}
