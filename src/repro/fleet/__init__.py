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
* :mod:`repro.fleet.queue` — a priority-aware front to the worker pool:
  small warm probes are scheduled ahead of giant cold sweeps instead of
  queueing FIFO behind them.

The store-level replication primitive lives with the stores themselves:
:class:`repro.autotune.store.AppendLogStore` seals rotated segments that can
be shipped between servers and ingested on the other side.
"""

from repro.fleet.queue import PriorityExecutor, PriorityItem, space_cost_estimate
from repro.fleet.registry import FleetRegistry
from repro.fleet.ring import HashRing

__all__ = [
    "FleetRegistry",
    "HashRing",
    "PriorityExecutor",
    "PriorityItem",
    "space_cost_estimate",
]
