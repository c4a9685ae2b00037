"""Pluggable evaluation backends: how a candidate configuration gets a cost.

One URI-selected interface (:class:`EvaluationBackend`: ``prepare`` once per
request, ``measure`` per candidate) with four implementations:

========================  ===========================================================
``model:``                analytical GPU-model pricing (default; Section 4.3)
``measure-py:``           run ``lower-py-vec`` once, price each block's counted work
``measure-c:``            compile + time the emitted C harness (needs a toolchain)
``hybrid:A>B?top=K``      A prunes the search, B re-ranks the top-K survivors
========================  ===========================================================

Every :class:`Measurement` carries its ``kind`` (``model`` / ``measured-py``
/ ``measured-c``) into reports and the persistent cache, and the backend
identity is part of the tuning fingerprint — model-priced, counted and timed
results never collide under one cache key.
"""

from repro.autotune.backends.base import (
    BACKEND_SCHEMES,
    BackendUnavailable,
    EvaluationBackend,
    Measurement,
    available_backends,
    parse_backend_uri,
    register_backend,
    resolve_backend,
    seeded_inputs,
    split_options,
)
from repro.autotune.backends.hybrid import HybridBackend
from repro.autotune.backends.measured_c import MeasuredCBackend
from repro.autotune.backends.measured_py import MeasuredPythonBackend
from repro.autotune.backends.model import ModelBackend

__all__ = [
    "BACKEND_SCHEMES",
    "BackendUnavailable",
    "EvaluationBackend",
    "HybridBackend",
    "Measurement",
    "MeasuredCBackend",
    "MeasuredPythonBackend",
    "ModelBackend",
    "available_backends",
    "parse_backend_uri",
    "register_backend",
    "resolve_backend",
    "seeded_inputs",
    "split_options",
]
