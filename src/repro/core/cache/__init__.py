"""Traveller Cache: camp locations, cache arrays, and foil designs.

Names load on first access (PEP 562), so reading a cached result's
:class:`CacheStatsTotal` does not import the camp mapper or the foils.
"""

from __future__ import annotations

from typing import Any

_LAZY = {
    "CampMapper": "repro.core.cache.camp",
    "TravellerCache": "repro.core.cache.traveller",
    "SramDataCache": "repro.core.cache.sram_cache",
    "DramTagCache": "repro.core.cache.dram_tag_cache",
    "CacheStatsTotal": "repro.core.cache.traveller",
    "ProbabilisticInsertion": "repro.core.cache.policies",
    "RandomReplacement": "repro.core.cache.policies",
    "LruReplacement": "repro.core.cache.policies",
    "make_replacement_policy": "repro.core.cache.policies",
}

__all__ = list(_LAZY)


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.core.cache' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
