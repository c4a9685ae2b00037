"""Horizontal scale-out of the tuning service: the *fleet* layer.

One :class:`~repro.service.server.TuningService` process holds exactly-once
tuning only inside its own in-flight dedup map; several servers sharing a
store degrade to file-lock contention and duplicate tuning runs.  This
package restores the exactly-once contract *fleet-wide*:

* :mod:`repro.fleet.ring` — a consistent-hash ring over tuning fingerprints.
  Every fingerprint has exactly one *home* node, so the home server's
  in-flight dedup map is authoritative for it; adding or removing a node
  moves only ~1/N of the keyspace.
* :mod:`repro.fleet.registry` — fleet membership (node id → base URL) plus
  the routing policy: a non-home server answers ``307`` with the home's
  ``/tune`` URL.

Members share one store rather than shipping copies of it: each server
opens the same append log (:class:`repro.autotune.store.AppendLogStore`),
whose file locks make concurrent appends safe, and a lookup that misses the
in-memory index replays the log's tail.  Scheduling inside one server — the priority queue
in front of its worker pool — is :class:`repro.service.jobs.JobTable`.
"""

from repro.fleet.registry import FleetRegistry
from repro.fleet.ring import HashRing

__all__ = [
    "FleetRegistry",
    "HashRing",
]
