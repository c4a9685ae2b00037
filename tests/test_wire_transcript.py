"""Golden wire transcript of the tuning server's HTTP API.

A scripted session against a one-worker thread server in a two-member fleet
(the peer is a name only; nothing contacts it) is compared, exchange by
exchange, with ``tests/fixtures/wire_transcript.jsonl`` (one per line):
status code, the headers a client acts on, and the JSON body with key order
kept.  Job ids,
fingerprints, the server's own URL, timestamps, durations and report bodies
are replaced by stable placeholders, so the comparison pins the protocol —
outcomes, statuses, counters, queue depths, error texts — and nothing that
varies run to run.

The session covers a cold ``/tune`` queued behind a busy worker, its dedup
join, a ``/status?wait=`` long-poll that times out and one that returns the
finished job, a warm hit, a ``/tune/batch`` with home, foreign and malformed
items, a 307, 404s, 400s and a 503 during a drain.  The worker is gated by
wrapping ``repro.service.server.execute_request``, so which job is queued and
which is running is fixed by the script, not by timing.

Re-record after an intended wire change with
``PYTHONPATH=src python tests/test_wire_transcript.py --record``.
"""

from __future__ import annotations

import http.client
import json
import re
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional
from unittest import mock

from repro.service import TuneRequest, TuningServer
from repro.service import server as server_module

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "wire_transcript.jsonl"

SPACE = {"thread_counts": [64], "block_counts": [16], "tile_candidates_per_geometry": 2}
#: the fixed ring: this server's node id and its one peer's
NODE, PEER = "http://node-a.test:1", "http://node-b.test:2"
#: request sizes by role — 32 is homed on NODE, 16 on PEER; 40 and 48 gate
#: the worker and are submitted in-process, off the wire
HOME_M, FOREIGN_M, BLOCKER_M, DRAIN_BLOCKER_M = 32, 16, 40, 48

_TIMESTAMPS = ("created_at", "finished_at")
_HEADERS = ("Content-Type", "Location", "Connection")


def _request(m: int) -> Dict[str, Any]:
    return TuneRequest(kernel="matmul", sizes={"m": m, "n": m, "k": m}, space=SPACE).to_dict()


class _Normaliser:
    """Stable placeholders for what varies run to run, by first appearance."""

    def __init__(self, server_url: str) -> None:
        self.server_url = server_url
        self.aliases: Dict[str, str] = {}

    def alias(self, value: str, kind: str) -> str:
        if value not in self.aliases:
            count = sum(1 for alias in self.aliases.values() if alias.startswith(f"<{kind}-"))
            self.aliases[value] = f"<{kind}-{count + 1}>"
        return self.aliases[value]

    def text(self, value: str) -> str:
        value = value.replace(self.server_url, "<server>")
        value = re.sub(r"\b[0-9a-f]{64}\b", lambda match: self.alias(match.group(), "fp"), value)
        for raw, alias in self.aliases.items():
            value = value.replace(raw, alias)
        return value

    def body(self, value: Any, key: Optional[str] = None) -> Any:
        if isinstance(value, dict):
            if isinstance(value.get("job"), str):
                self.alias(value["job"], "job")
            return {name: self.body(item, name) for name, item in value.items()}
        if isinstance(value, list):
            return [self.body(item) for item in value]
        if value is None:
            return None
        if key == "report":
            return "<report>"
        if key in _TIMESTAMPS:
            return "<time>"
        if key == "duration_s":
            return "<duration>"
        if isinstance(value, str):
            return self.text(value)
        return value


def record_session() -> List[Dict[str, Any]]:
    """Run the scripted session; the normalised exchanges in order."""
    gates = {BLOCKER_M: threading.Event(), DRAIN_BLOCKER_M: threading.Event()}
    execute = server_module.execute_request

    def gated(payload, **keywords):
        gate = gates.get(payload["sizes"]["m"])
        if gate is not None:
            gate.wait(60)
        return execute(payload, **keywords)

    with mock.patch.object(server_module, "execute_request", gated):
        server = TuningServer(port=0, executor="thread", max_workers=1).start()
        try:
            return _script(server, gates)
        finally:
            for gate in gates.values():
                gate.set()
            server.stop()


def _script(server: TuningServer, gates: Dict[int, threading.Event]) -> List[Dict[str, Any]]:
    fleet = server.configure_fleet([PEER], advertise_url=NODE)
    for m, home in ((HOME_M, NODE), (FOREIGN_M, PEER)):
        fingerprint = TuneRequest.from_dict(_request(m)).resolve().fingerprint
        assert fleet.home(fingerprint) == home, "fingerprints moved: re-pick the sizes"
    normaliser = _Normaliser(server.url)
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=60)
    transcript: List[Dict[str, Any]] = []

    def exchange(method: str, path: str, payload: Any = None, raw: Optional[str] = None):
        body = raw if raw is not None else (None if payload is None else json.dumps(payload))
        connection.request(method, path, body=body, headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        parsed = json.loads(response.read().decode("utf-8"))
        transcript.append(
            {
                "request": f"{method} {normaliser.text(path)}",
                "body": normaliser.body(payload) if raw is None else raw,
                "status": response.status,
                "headers": {
                    name: normaliser.text(response.headers[name])
                    for name in _HEADERS
                    if response.headers.get(name) is not None
                },
                "response": normaliser.body(parsed),
            }
        )
        return parsed

    service = server.service
    try:
        service.submit(_request(BLOCKER_M))  # occupies the one worker, off the wire
        exchange("GET", "/healthz")
        cold = exchange("POST", "/tune", _request(HOME_M))
        exchange("POST", "/tune", _request(HOME_M))
        exchange("GET", f"/status/{cold['job']}?wait=0.05")
        exchange("GET", "/cache/stats")
        exchange("GET", "/fleet")
        gates[BLOCKER_M].set()
        exchange("GET", f"/status/{cold['job']}?wait=30")
        exchange("POST", "/tune", _request(HOME_M))
        exchange(
            "POST",
            "/tune/batch",
            {"requests": [_request(HOME_M), _request(FOREIGN_M), {"kernel": "no_such_kernel"}]},
        )
        exchange("POST", "/tune", _request(FOREIGN_M))
        exchange("GET", "/status/000000000000")
        exchange("GET", "/no/such/endpoint")
        exchange("POST", "/tune", {"kernel": "matmul", "strategy": "simulated-annealing"})
        exchange("POST", "/tune", raw="{not json")
        exchange("GET", f"/status/{cold['job']}?wait=soon")

        service.submit(_request(DRAIN_BLOCKER_M))  # a running job keeps the drain open
        drainer = threading.Thread(target=service.drain, daemon=True)
        drainer.start()
        deadline = time.monotonic() + 30
        while not service.draining and time.monotonic() < deadline:
            time.sleep(0.01)
        exchange("POST", "/tune", _request(HOME_M))
        exchange("GET", "/healthz")
        gates[DRAIN_BLOCKER_M].set()
        drainer.join(60)
        exchange("GET", "/cache/stats")
    finally:
        connection.close()
    return transcript


def test_wire_transcript_matches_the_recorded_session():
    expected = [json.loads(line) for line in FIXTURE.read_text(encoding="utf-8").splitlines()]
    actual = record_session()
    assert [item["request"] for item in actual] == [item["request"] for item in expected]
    for got, want in zip(actual, expected):
        # json.dumps keeps key order, so field order on the wire is pinned too
        assert json.dumps(got) == json.dumps(want), got["request"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_wire_transcript.py --record")
    lines = [json.dumps(exchange) + "\n" for exchange in record_session()]
    FIXTURE.write_text("".join(lines), encoding="utf-8")
    print(f"recorded {FIXTURE}")
