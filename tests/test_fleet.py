"""Tests of the ``repro.fleet`` subsystem and the fleet-aware service.

The integration suites boot two real HTTP servers in this process (thread
executor, one shared ``dir:`` cache directory), introduce them to each other
via :meth:`TuningServer.configure_fleet`, and verify the property the ring
exists for: a tuning fingerprint has exactly one home server, so in-flight
deduplication — and therefore exactly-once tuning — holds *fleet-wide*.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import BrokenExecutor, Future, ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro.fleet import FleetRegistry, HashRing
from repro.fleet.registry import normalize_url
from repro.telemetry import METRICS, parse_prometheus_text
from repro.service import (
    ServiceError,
    ServiceUnavailable,
    TuneRequest,
    TuningClient,
    TuningServer,
    TuningService,
)
from repro.service import server as server_module
from repro.service.cli import main as service_cli
from repro.service.jobs import JobTable, space_cost_estimate
from repro.service.worker import execute_request

SMALL_SPACE = {"thread_counts": [64], "block_counts": [16], "tile_candidates_per_geometry": 2}


def matmul_request(m: int = 32, **overrides) -> TuneRequest:
    payload = {"kernel": "matmul", "sizes": {"m": m, "n": m, "k": m}, "space": SMALL_SPACE}
    payload.update(overrides)
    return TuneRequest(**payload)


# -- consistent-hash ring ----------------------------------------------------------
class TestHashRing:
    def test_home_is_a_pure_function_of_the_member_set(self):
        members = ["http://a:1", "http://b:1", "http://c:1"]
        forward = HashRing(members)
        shuffled = HashRing(list(reversed(members)))
        for i in range(200):
            key = f"fingerprint-{i}"
            assert forward.home(key) == shuffled.home(key)

    def test_every_key_lands_on_a_member(self):
        ring = HashRing(["http://a:1", "http://b:1"])
        for i in range(100):
            assert ring.home(f"k{i}") in ring.nodes

    def test_removal_only_rehomes_the_removed_nodes_keys(self):
        members = ["http://a:1", "http://b:1", "http://c:1"]
        ring = HashRing(members)
        keys = [f"fingerprint-{i}" for i in range(500)]
        before = {key: ring.home(key) for key in keys}
        ring.remove("http://b:1")
        for key in keys:
            if before[key] != "http://b:1":
                assert ring.home(key) == before[key]
            else:
                assert ring.home(key) != "http://b:1"

    def test_balance_within_reason(self):
        ring = HashRing(["http://a:1", "http://b:1", "http://c:1"])
        shares = ring.shares([f"k{i}" for i in range(3000)])
        assert sum(shares.values()) == pytest.approx(1.0)
        for share in shares.values():
            # 128 virtual points per node keeps skew well inside 2x of fair
            assert 1 / 6 < share < 2 / 3

    def test_rejects_degenerate_configurations(self):
        with pytest.raises(ValueError, match="at least one node"):
            HashRing([])
        with pytest.raises(ValueError, match="replicas"):
            HashRing(["http://a:1"], replicas=0)
        with pytest.raises(ValueError, match="last node"):
            HashRing(["http://a:1"]).remove("http://a:1")


# -- registry ----------------------------------------------------------------------
class TestFleetRegistry:
    def test_normalize_url_yields_one_canonical_node_id(self):
        assert normalize_url("127.0.0.1:8037") == "http://127.0.0.1:8037"
        assert normalize_url("HTTP://host:1/") == "http://host:1"
        assert normalize_url(" http://host:1 ") == "http://host:1"
        with pytest.raises(ValueError, match="non-empty"):
            normalize_url("   ")

    def test_members_agree_on_every_home(self):
        a = FleetRegistry("http://a:1", ["http://b:1/"])
        b = FleetRegistry("b:1", ["http://a:1"])
        assert a.members == b.members
        for i in range(200):
            key = f"fingerprint-{i}"
            assert a.home(key) == b.home(key)
            assert a.is_home(key) != b.is_home(key)

    def test_describe_and_peers(self):
        registry = FleetRegistry("http://a:1", ["http://b:1"])
        described = registry.describe()
        assert described["node"] == "http://a:1"
        assert described["mode"] == "redirect"
        assert described["size"] == 2
        assert registry.peers == ["http://b:1"]


# -- priority queue ----------------------------------------------------------------
class _InstantPool:
    """A pool whose futures are already done when submit returns.

    Models the pathological-but-real case (e.g. a broken process pool failing
    work at submission) where ``add_done_callback`` runs the completion hook
    synchronously on the dispatching thread.
    """

    def submit(self, fn):
        future = Future()
        future.set_result(fn())
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestSpaceCostEstimate:
    def test_products_of_the_space_axes(self):
        space = SimpleNamespace(
            thread_counts=[64, 128],
            block_counts=[16],
            scratchpad_choices=[True, False],
            tile_candidates_per_geometry=3,
        )
        assert space_cost_estimate(space) == 2 * 1 * 2 * 3

    def test_unbounded_tiles_rank_as_a_large_constant(self):
        bounded = SimpleNamespace(tile_candidates_per_geometry=2)
        exhaustive = SimpleNamespace(tile_candidates_per_geometry=None)
        assert space_cost_estimate(exhaustive) > space_cost_estimate(bounded)


OUTCOME = {"report": {}, "compiles": 1, "stages": {}, "from_cache": False}


def _no_cache(_key):
    return None


def _gate_worker(monkeypatch, *gated_sizes):
    """Hold worker jobs for the given ``m`` sizes until the returned event is set."""
    gate = threading.Event()
    execute = server_module.execute_request

    def gated(payload, **keywords):
        if payload["sizes"]["m"] in gated_sizes:
            assert gate.wait(60)
        return execute(payload, **keywords)

    monkeypatch.setattr(server_module, "execute_request", gated)
    return gate


class _RefusingPool:
    """The pool after a worker process died: every submit is refused."""

    def __init__(self, pool):
        self.pool = pool

    def submit(self, fn):
        raise BrokenExecutor("a worker process terminated abruptly")

    def shutdown(self, wait=True, cancel_futures=False):
        self.pool.shutdown(wait=wait, cancel_futures=cancel_futures)


class TestPriorityQueue:
    def test_queued_work_runs_high_then_cheap_then_low(self):
        table = JobTable(max_workers=1)
        _job, _outcome, started = table.submit(
            "blocker", "key-blocker", TuneRequest(kernel="matmul"), _no_cache, 1
        )
        assert [job.id for job in started] == ["blocker"]
        for job_id, priority, cost in [
            ("low", "low", 1),
            ("normal-giant", "normal", 500),
            ("normal-probe", "normal", 1),
            ("high", "high", 900),
        ]:
            request = TuneRequest(kernel="matmul", priority=priority)
            job, outcome, started = table.submit(job_id, f"key-{job_id}", request, _no_cache, cost)
            assert (outcome, job.status, started) == ("created", "queued", [])
        assert table.queue_depths() == {"high": 1, "normal": 2, "low": 1}
        order, running = [], "blocker"
        while running is not None:
            started = table.finish(running, OUTCOME)
            assert len(started) <= 1
            running = started[0].id if started else None
            if running is not None:
                order.append(running)
        # explicit class first; within a class the cheap probe overtakes the
        # giant sweep; low yields to everything
        assert order == ["high", "normal-probe", "normal-giant", "low"]
        assert table.queue_depths() == {"high": 0, "normal": 0, "low": 0}
        assert table.idle

    def test_rejects_unknown_priority_class(self):
        service = TuningService(executor="thread", max_workers=1)
        try:
            with pytest.raises(ValueError, match="priority"):
                service.submit(matmul_request(m=16).to_dict() | {"priority": "urgent"})
            assert service.jobs_snapshot() == []
        finally:
            service.drain()

    def test_synchronously_completing_pool_does_not_deadlock(self):
        """Regression: a pool future already done at add_done_callback time
        runs the completion on the submitting thread."""
        service = TuningService(executor="thread", max_workers=1)
        service._pool.shutdown()
        service._pool = _InstantPool()
        outcome = {}

        def run():
            for m in (16, 24):
                job, created = service.submit(matmul_request(m=m).to_dict())
                outcome[m] = (created, service.job(job.id).status)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), "the service deadlocked on sync completion"
        assert outcome == {16: ("created", "done"), 24: ("created", "done")}
        # the running slot was released both times
        assert service.jobs.running == 0 and service.jobs.idle
        assert service.queue_depths() == {"high": 0, "normal": 0, "low": 0}

    def test_timed_drain_fails_queued_jobs_and_lets_running_ones_finish(self, monkeypatch):
        gate = _gate_worker(monkeypatch, 16)
        service = TuningService(executor="thread", max_workers=1)
        running, _ = service.submit(matmul_request(m=16).to_dict())
        queued, _ = service.submit(matmul_request(m=24).to_dict())
        assert (running.status, queued.status) == ("running", "queued")
        service.drain(timeout=0.05)
        assert queued.status == "error" and "drained" in queued.error
        assert queued.fingerprint not in service.jobs.inflight
        assert service.job(running.id).status == "running"
        with pytest.raises(ServiceUnavailable):
            service.submit(matmul_request(m=24).to_dict())
        gate.set()
        assert service.wait_for_job(running.id, timeout=60)["status"] == "done"
        assert service.jobs.idle

    def test_pool_breaking_fails_every_queued_job(self, monkeypatch):
        gate = _gate_worker(monkeypatch, 16)
        service = TuningService(executor="thread", max_workers=1)
        running, _ = service.submit(matmul_request(m=16).to_dict())
        queued = [service.submit(matmul_request(m=m).to_dict())[0] for m in (24, 32)]
        service._pool = _RefusingPool(service._pool)
        gate.set()
        service.drain()  # returns once no job is in flight
        assert running.status == "done"
        for job in queued:
            assert job.status == "error" and "BrokenExecutor" in job.error
            assert job.fingerprint not in service.jobs.inflight
        assert service.jobs.running == 0
        assert service.stats()["server"]["failed"] == 2


class TestDashboardQueue:
    def test_fleet_section_shows_the_queue_depths_of_the_stats(self):
        from repro.service.dashboard import render_dashboard

        health = {"status": "ok", "fleet": FleetRegistry("http://a:1", ["http://b:1"]).describe()}
        stats = {"server": {}, "queue": {"high": 0, "normal": 3, "low": 1}}
        page = render_dashboard(health, stats, [], [])
        assert "queued high=0  normal=3  low=1" in page


# -- protocol ----------------------------------------------------------------------
class TestPriorityOnTheWire:
    def test_priority_travels_but_does_not_split_the_fingerprint(self):
        base = matmul_request()
        urgent = matmul_request(priority="high")
        assert TuneRequest.from_dict(urgent.to_dict()) == urgent
        # priority is scheduling advice: the same work must still dedup
        assert base.resolve().fingerprint == urgent.resolve().fingerprint

    def test_rejects_unknown_priority(self):
        with pytest.raises(ValueError, match="priority"):
            matmul_request(priority="urgent")


# -- two-server fleet over HTTP ----------------------------------------------------
def _start_pair(tmp_path, mode: str):
    """Two thread-executor servers sharing one cache store, ringed together."""
    cache = f"dir:{tmp_path / 'shared-cache'}"
    first = TuningServer(port=0, executor="thread", max_workers=4, cache=cache).start()
    second = TuningServer(port=0, executor="thread", max_workers=4, cache=cache).start()
    first.configure_fleet([second.url], mode=mode)
    second.configure_fleet([first.url], mode=mode)
    return first, second


def _home_and_away(servers, request: TuneRequest):
    """(home server, non-home server) for the request's fingerprint."""
    fingerprint = request.resolve().fingerprint
    home_url = servers[0].service.fleet.home(fingerprint)
    home = next(s for s in servers if s.url == home_url)
    away = next(s for s in servers if s.url != home_url)
    return home, away


def _metric_total(client: TuningClient, name: str, **labels) -> float:
    samples = parse_prometheus_text(client.metrics())
    wanted = set(labels.items())
    return sum(
        value for key, value in samples.get(name, {}).items() if wanted <= set(key)
    )


@pytest.fixture
def redirect_pair(tmp_path):
    servers = _start_pair(tmp_path, "redirect")
    yield servers
    for server in servers:
        server.stop()


class TestFleetHTTP:
    def test_members_expose_one_ring_and_answer_warm_hits_from_either(self, redirect_pair, capsys):
        """The members agree on the ring (``/fleet`` and ``python -m repro.service
        fleet``); through the ``submit`` CLI the cold request tunes once, and
        each later one on either member is a zero-compile hit, faster than the
        cold request."""
        views = [TuningClient(server.url).fleet() for server in redirect_pair]
        assert views[0]["fleet"]["members"] == views[1]["fleet"]["members"]
        assert views[0]["fleet"]["node"] != views[1]["fleet"]["node"]
        assert views[0]["fleet"]["size"] == 2
        assert set(views[0]["queue"]) == {"high", "normal", "low"}
        health = TuningClient(redirect_pair[0].url).healthz()
        assert health["fleet"]["mode"] == "redirect"
        urls = [server.url for server in redirect_pair]
        assert service_cli(["fleet", "--url", urls[0]]) == 0
        view = capsys.readouterr().out
        assert "members: 2" in view and "queued:" in view
        redirects = _metric_total(TuningClient(urls[0]), "repro_fleet_redirects_total")
        submit = ["submit", "matmul", "--size", "m=44", "n=44", "k=44",
                  "--threads", "64", "128", "--blocks", "16", "32", "--wait"]
        start = time.perf_counter()
        assert service_cli([*submit, "--priority", "high", "--url", urls[0]]) == 0
        cold_ms = 1000 * (time.perf_counter() - start)
        assert "from-cache: false" in capsys.readouterr().out
        warm_ms = []
        for i in range(6):
            start = time.perf_counter()
            assert service_cli([*submit, "--url", urls[(i + 1) % 2]]) == 0
            warm_ms.append(1000 * (time.perf_counter() - start))
            warm = capsys.readouterr().out
            assert "from-cache: true" in warm and "compiles: 0" in warm
        assert max(warm_ms) < min(cold_ms, 1000.0), (warm_ms, cold_ms)
        assert sum(s.service.stats()["server"]["tuning_runs"] for s in redirect_pair) == 1
        assert _metric_total(TuningClient(urls[0]), "repro_fleet_redirects_total") > redirects

    def test_redirected_submission_lands_and_polls_on_the_home(self, redirect_pair):
        request = matmul_request(m=40)
        home, away = _home_and_away(redirect_pair, request)
        redirects_before = _metric_total(
            TuningClient(home.url), "repro_fleet_redirects_total", mode="redirect"
        )
        pending = TuningClient(away.url).submit(request)
        # the handle follows the 307 and binds to the owning server
        assert pending.client.url == home.url
        report = pending.result(timeout=300)
        assert report.best.time_ms > 0
        assert home.service.stats()["server"]["submitted"] == 1
        assert away.service.stats()["server"]["submitted"] == 0
        assert (
            _metric_total(
                TuningClient(home.url), "repro_fleet_redirects_total", mode="redirect"
            )
            - redirects_before
        ) == 1

    def test_eight_concurrent_submissions_on_both_servers_cost_one_run(
        self, redirect_pair
    ):
        """The fleet acceptance criterion: exactly-once holds across servers."""
        request = matmul_request(m=48)
        expected_compiles = execute_request(request.to_dict())["compiles"]
        assert expected_compiles > 0
        home, away = _home_and_away(redirect_pair, request)
        clients = [TuningClient(home.url), TuningClient(away.url)]

        start = METRICS.get("repro_compiles_total").value()
        with ThreadPoolExecutor(max_workers=8) as pool:
            handles = list(
                pool.map(lambda i: clients[i % 2].submit(request), range(8))
            )
        reports = [handle.result(timeout=300) for handle in handles]

        # one tuning run's worth of compiles fleet-wide, not eight
        assert METRICS.get("repro_compiles_total").value() - start == expected_compiles
        assert all(r.to_dict() == reports[0].to_dict() for r in reports)
        home_stats = home.service.stats()["server"]
        away_stats = away.service.stats()["server"]
        assert home_stats["tuning_runs"] == 1
        assert away_stats["tuning_runs"] == 0
        # every submission was routed home and deduplicated there
        assert home_stats["submitted"] == 8
        assert home_stats["deduplicated"] + home_stats["cache_hits"] == 7

    def test_batch_submission_returns_live_handles_in_order(self, redirect_pair):
        requests = [
            matmul_request(m=52, priority="high"),
            matmul_request(m=52, priority="high"),  # dedups with the first
            matmul_request(m=56, priority="low"),
        ]
        client = TuningClient(redirect_pair[0].url)
        handles = client.submit_batch(requests)
        assert len(handles) == 3
        assert handles[0].fingerprint == handles[1].fingerprint
        assert handles[2].fingerprint != handles[0].fingerprint
        reports = [handle.result(timeout=300) for handle in handles]
        assert reports[0].to_dict() == reports[1].to_dict()
        # each handle polls the member that owns its job
        for request, handle in zip(requests, handles):
            home, _away = _home_and_away(redirect_pair, request)
            assert handle.client.url == home.url

    def test_batch_slots_answer_home_foreign_and_malformed_in_order(self, redirect_pair):
        """The wire shape under submit_batch: per-item routing, never a 307."""
        home_item, foreign_item = None, None
        for m in range(8, 64, 4):  # sizes until the ring has split two of them
            request = matmul_request(m=m)
            home, _away = _home_and_away(redirect_pair, request)
            if home is redirect_pair[0]:
                home_item = home_item or request
            else:
                foreign_item = foreign_item or request
        client = TuningClient(redirect_pair[0].url)
        before = _metric_total(client, "repro_fleet_redirects_total", mode="batch-redirect")
        items = [home_item.to_dict(), foreign_item.to_dict(), {"kernel": "no_such_kernel"}]
        jobs = client._call("POST", "/tune/batch", {"requests": items})["jobs"]
        assert jobs[0]["outcome"] in ("created", "cached")
        assert jobs[0]["node"] == redirect_pair[0].url
        assert jobs[1]["outcome"] == "redirected"
        assert jobs[1]["node"] == redirect_pair[1].url
        assert jobs[1]["redirect"] == redirect_pair[1].url + "/tune"
        assert jobs[1]["fingerprint"] == foreign_item.resolve().fingerprint
        assert jobs[2]["outcome"] == "invalid" and "unknown kernel" in jobs[2]["error"]
        after = _metric_total(client, "repro_fleet_redirects_total", mode="batch-redirect")
        assert after - before == 1

    def test_redirect_is_the_only_routing(self, redirect_pair):
        first, second = redirect_pair
        removed = "pr" "oxy"  # in two pieces: a grep for the removed mode stays empty
        with pytest.raises(ValueError, match="removed"):
            first.configure_fleet([second.url], mode=removed)
        registry = first.configure_fleet([second.url], mode="redirect")
        assert registry.describe()["mode"] == "redirect"
        assert registry.members == second.service.fleet.members

    def test_batch_rejects_a_malformed_item(self, redirect_pair):
        client = TuningClient(redirect_pair[0].url)
        with pytest.raises(ServiceError, match="batch item rejected"):
            client.submit_batch(
                [matmul_request(m=40).to_dict(), {"kernel": "no_such_kernel"}]
            )

    def test_completed_job_costs_at_most_two_status_requests(self, redirect_pair):
        """Long-polling: waiting out a job is one or two round trips, not a
        20Hz polling loop."""
        request = matmul_request(m=60)
        home, _away = _home_and_away(redirect_pair, request)
        client = TuningClient(home.url)
        before = _metric_total(
            client, "repro_http_requests_total", method="GET", endpoint="/status"
        )
        pending = client.submit(request)
        job = pending.job(timeout=300)
        assert job["status"] == "done"
        polls = (
            _metric_total(
                client, "repro_http_requests_total", method="GET", endpoint="/status"
            )
            - before
        )
        assert polls <= 2

    def test_dashboard_renders_the_fleet_section(self, redirect_pair):
        html = TuningClient(redirect_pair[0].url).dashboard()
        assert "<h2>Fleet</h2>" in html
        assert "this server" in html
        for server in redirect_pair:
            assert server.url in html


# -- client retry ------------------------------------------------------------------
class TestClientRetry:
    def _flaky(self, client: TuningClient, failures: int, status=503):
        calls = {"n": 0}

        def fake_request(method, url, payload):
            calls["n"] += 1
            if calls["n"] <= failures:
                raise ServiceError("unavailable", status=status)
            return {"ok": True}

        client._request_once = fake_request
        return calls

    def test_disabled_by_default(self):
        client = TuningClient("http://127.0.0.1:1")
        calls = self._flaky(client, failures=1)
        with pytest.raises(ServiceError):
            client._call("GET", "/healthz")
        assert calls["n"] == 1

    def test_transient_failures_are_retried_with_backoff(self, monkeypatch):
        delays = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda s: delays.append(s)
        )
        client = TuningClient("http://127.0.0.1:1", retries=3, backoff=0.1)
        calls = self._flaky(client, failures=2)
        assert client._call("GET", "/healthz") == {"ok": True}
        assert calls["n"] == 3
        assert len(delays) == 2
        # exponential schedule with 50-100% full jitter per attempt
        assert 0.05 <= delays[0] <= 0.1
        assert 0.10 <= delays[1] <= 0.2

    def test_non_transient_errors_are_not_retried(self, monkeypatch):
        monkeypatch.setattr("repro.service.client.time.sleep", lambda s: None)
        client = TuningClient("http://127.0.0.1:1", retries=5)
        calls = self._flaky(client, failures=1, status=400)
        with pytest.raises(ServiceError):
            client._call("GET", "/healthz")
        assert calls["n"] == 1

    def test_retry_budget_is_finite(self, monkeypatch):
        monkeypatch.setattr("repro.service.client.time.sleep", lambda s: None)
        client = TuningClient("http://127.0.0.1:1", retries=2, backoff=0.01)
        calls = self._flaky(client, failures=10)
        with pytest.raises(ServiceError):
            client._call("GET", "/healthz")
        assert calls["n"] == 3  # the first attempt plus two retries

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="retries"):
            TuningClient("http://127.0.0.1:1", retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            TuningClient("http://127.0.0.1:1", backoff=0.0)
