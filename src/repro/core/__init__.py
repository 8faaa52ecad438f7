"""The paper's primary contribution: Traveller Cache + hybrid scheduling.

``repro.core.cache``     -- camp-location mapping and the distributed
                            DRAM cache (Section 4), plus the SRAM-cache
                            and DRAM-tag-cache foils of Figure 13.
``repro.core.scheduler`` -- the Table 2 scheduling policies, including
                            the hybrid score-based policy (Section 5).
``repro.core.system``    -- wires a design point (Table 2 row) into a
                            runnable simulated machine.

Submodules are loaded lazily so that low-level pieces (cache stats,
scheduler classes) can be imported without dragging in the full system
assembly, which would otherwise create import cycles.
"""

_LAZY = {
    "NdpSystem": "repro.core.system",
    "DesignPoint": "repro.core.system",
    "DESIGN_POINTS": "repro.core.system",
    "build_system": "repro.core.system",
    "HostModel": "repro.core.host",
    "MemorySystem": "repro.core.memory_system",
}

__all__ = list(_LAZY)


def __getattr__(name):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(_LAZY[name])
        return getattr(module, name)
    raise AttributeError(f"module 'repro.core' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
