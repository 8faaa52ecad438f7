"""ABNDP reproduction: co-optimizing data access and load balance in NDP.

A from-scratch Python implementation of the system described in

    Boyu Tian, Qihang Chen, Mingyu Gao.
    "ABNDP: Co-optimizing Data Access and Load Balance in Near-Data
    Processing." ASPLOS 2023.

The package contains a task-grain discrete-event simulator of a
3D-stacked NDP machine (``repro.arch``, ``repro.runtime``), the paper's
two contributions — the Traveller Cache distributed DRAM cache and the
hybrid task scheduler (``repro.core``) — the eight evaluated workloads
(``repro.workloads``), and the analysis utilities behind every table
and figure (``repro.analysis``).

Quick start::

    import repro
    result = repro.simulate("O", "pr")       # full ABNDP on Page Rank
    base = repro.simulate("B", "pr")
    print(result.speedup_over(base))
"""

from repro.config import (
    CacheConfig,
    CacheStyle,
    CampMapping,
    CoreConfig,
    MemoryConfig,
    NocConfig,
    ReplacementPolicy,
    SchedulerConfig,
    SchedulingPolicy,
    SramConfig,
    SystemConfig,
    TopologyConfig,
    default_config,
    describe_config,
    experiment_config,
)
# Imported eagerly so ``repro.simulate`` is the function, never the
# submodule, whichever module a caller imports first.
from repro.simulate import (
    ALL_DESIGNS,
    ALL_WORKLOADS,
    DETAIL_WORKLOADS,
    compare_designs,
    simulate,
)

# Everything else loads on first access (PEP 562), so a caller that
# needs only the configuration or the result cache (a cached
# ``repro run``) never imports the simulator, the workloads, the
# fault subsystem or the sweep runtime.
_LAZY = {
    "RunResult": "repro.analysis.metrics",
    "HostModel": "repro.core.host",
    "DESIGN_POINTS": "repro.core.system",
    "DesignPoint": "repro.core.system",
    "NdpSystem": "repro.core.system",
    "build_system": "repro.core.system",
    "WORKLOAD_FACTORIES": "repro.workloads.base",
    "Workload": "repro.workloads.base",
    "make_workload": "repro.workloads.base",
    # fault injection & resilience (docs/resilience.md)
    "FaultEvent": "repro.faults",
    "FaultKind": "repro.faults",
    "FaultSchedule": "repro.faults",
    "ResilienceStats": "repro.faults",
    "make_random_schedule": "repro.faults",
    "run_fault_campaign": "repro.faults",
    # the sweep engine: parallel grid runs + the content-addressed
    # result cache
    "sweep": "repro.sweep",
    "ResultCache": "repro.sweep.cache",
    "SweepRunner": "repro.sweep.runner",
    "cached_simulate": "repro.sweep.runner",
    "run_matrix": "repro.sweep.runner",
    "run_point": "repro.sweep.runner",
}


def __getattr__(name):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(_LAZY[name])
        if module.__name__ == f"{__name__}.{name}":
            return module  # a subpackage, e.g. ``repro.sweep``
        return getattr(module, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "1.0.0"

__all__ = [
    # configuration
    "SystemConfig",
    "TopologyConfig",
    "CoreConfig",
    "MemoryConfig",
    "NocConfig",
    "SramConfig",
    "CacheConfig",
    "SchedulerConfig",
    "CacheStyle",
    "CampMapping",
    "ReplacementPolicy",
    "SchedulingPolicy",
    "default_config",
    "describe_config",
    "experiment_config",
    # machines and designs
    "NdpSystem",
    "DesignPoint",
    "DESIGN_POINTS",
    "build_system",
    "HostModel",
    # running
    "simulate",
    "compare_designs",
    "sweep",
    "cached_simulate",
    "run_point",
    "run_matrix",
    "SweepRunner",
    "ResultCache",
    "ALL_DESIGNS",
    "ALL_WORKLOADS",
    "DETAIL_WORKLOADS",
    # workloads
    "Workload",
    "make_workload",
    "WORKLOAD_FACTORIES",
    # faults & resilience
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "ResilienceStats",
    "make_random_schedule",
    "run_fault_campaign",
    # results
    "RunResult",
    "__version__",
]
