"""Fleet membership and the ``/tune`` routing policy.

A :class:`FleetRegistry` is what a server knows about its fleet: the member
node ids (their normalised base URLs) and which of them is *this* server.
A request whose fingerprint is homed elsewhere is answered ``307 Temporary
Redirect`` with the home server's ``/tune`` URL.  The client re-POSTs the
identical body (307 preserves method and body by definition — the stdlib
client in :mod:`repro.service.client` handles this, since ``urllib`` refuses
to follow redirected POSTs on its own) and then polls the home for its job,
so every member must be reachable by clients.

Membership is static configuration (the ``serve --peers`` list).  Every
member derives the identical ring from the identical list, so no agreement
protocol is needed; the registry is a pure function of its config, which is
exactly what makes the fleet-wide exactly-once property auditable.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.fleet.ring import HashRing

__all__ = ["FleetRegistry", "normalize_url"]


def normalize_url(url: str) -> str:
    """Canonical node id for a server base URL (scheme defaulted, no slash).

    Every member must normalise peer URLs identically or their rings — and
    therefore their notion of "home" — would disagree.
    """
    if not isinstance(url, str) or not url.strip():
        raise ValueError(f"fleet member URL must be a non-empty string, got {url!r}")
    url = url.strip().rstrip("/")
    if "://" not in url:
        url = "http://" + url
    scheme, _, rest = url.partition("://")
    return f"{scheme.lower()}://{rest}"


class FleetRegistry:
    """This server's view of the fleet: members and self."""

    def __init__(self, self_url: str, peers: Iterable[str], replicas: int = 128) -> None:
        self.node_id = normalize_url(self_url)
        members = {self.node_id}
        for peer in peers:
            members.add(normalize_url(peer))
        self.ring = HashRing(sorted(members), replicas=replicas)

    @property
    def members(self) -> List[str]:
        return self.ring.nodes

    @property
    def peers(self) -> List[str]:
        """Every member except this server."""
        return [node for node in self.ring.nodes if node != self.node_id]

    def home(self, fingerprint: str) -> str:
        return self.ring.home(fingerprint)

    def is_home(self, fingerprint: str) -> bool:
        return self.home(fingerprint) == self.node_id

    def describe(self) -> Dict[str, Any]:
        """The ``fleet`` section of ``/healthz``."""
        return {
            "node": self.node_id,
            "mode": "redirect",  # the only routing; kept on the wire
            "members": self.members,
            "size": len(self.ring),
        }

    def poll_members(
        self, timeout: float = 5.0
    ) -> List[Tuple[str, Optional[Dict[str, Any]]]]:
        """Each member's ``/healthz`` payload (``None`` when unreachable)."""
        results: List[Tuple[str, Optional[Dict[str, Any]]]] = []
        for member in self.members:
            try:
                with urllib.request.urlopen(member + "/healthz", timeout=timeout) as resp:
                    results.append((member, json.loads(resp.read().decode("utf-8"))))
            except (urllib.error.URLError, OSError, ValueError):
                results.append((member, None))
        return results
