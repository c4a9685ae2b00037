"""Small shared utilities used across the ``repro`` package."""

from repro.utils.components import connected_components
from repro.utils.frac import as_fraction, fraction_ceil, fraction_floor
from repro.utils.naming import NameGenerator, fresh_name
from repro.utils.validation import require, require_type, require_positive

__all__ = [
    "connected_components",
    "as_fraction",
    "fraction_ceil",
    "fraction_floor",
    "NameGenerator",
    "fresh_name",
    "require",
    "require_type",
    "require_positive",
]
