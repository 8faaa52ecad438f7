"""Hardware substrate: topology, interconnect, DRAM, SRAM, NDP units.

These modules model the baseline NDP machine of Section 3.2 — the parts
of the system that exist with or without the ABNDP optimizations.

Names load on first access (PEP 562): reading a cached result needs
only the stats dataclasses of ``dram``, ``sram``, ``noc`` and
``energy``, not the rest of the substrate.
"""

from __future__ import annotations

from typing import Any

_LAZY = {
    "Topology": "repro.arch.topology",
    "Interconnect": "repro.arch.noc",
    "AccessClass": "repro.arch.noc",
    "DramChannel": "repro.arch.dram",
    "SramModel": "repro.arch.sram",
    "sram_area_mm2": "repro.arch.sram",
    "MemoryMap": "repro.arch.memory_map",
    "Allocator": "repro.arch.memory_map",
    "DataRegion": "repro.arch.memory_map",
    "EnergyModel": "repro.arch.energy",
    "EnergyBreakdown": "repro.arch.energy",
}

__all__ = list(_LAZY)


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.arch' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
