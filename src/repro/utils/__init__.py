"""Shared utilities: naming and serialization helpers.

The graph algorithms live in :mod:`repro.utils.graphs`; import them from
there.
"""

from repro.utils.naming import NameRegistry, is_valid_name, make_unique
from repro.utils.serialization import dump_json, load_json

__all__ = [
    "NameRegistry",
    "is_valid_name",
    "make_unique",
    "dump_json",
    "load_json",
]
