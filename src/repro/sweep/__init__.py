"""repro.sweep — parallel sweep engine with a content-addressed cache.

The subsystem behind ``python -m repro sweep`` and every batch runner
in the repo (``scripts/matrix.py``, ``benchmarks/common.py``):

* :mod:`repro.sweep.keys` — deterministic run keys (config + design +
  workload + simulator version salt);
* :mod:`repro.sweep.cache` — the on-disk JSON result store under
  ``.repro_cache/`` with hit/miss/invalidation accounting;
* :mod:`repro.sweep.serialize` — exact RunResult round-tripping;
* :mod:`repro.sweep.runner` — cached single-point runs and the
  multiprocessing grid runner with per-point failure capture;
* :mod:`repro.sweep.runtime` — the warm worker runtime: persistent
  pools, per-process memo caches, the shared-memory workload store
  and history-informed LPT point ordering.

See ``docs/experiments.md`` for the end-to-end workflow.

Names load on first access (PEP 562): the cache-hit path needs only
keys, cache and serialize, and must not pay for the runner's
multiprocessing runtime or the workload registry.
"""

from __future__ import annotations

from typing import Any

_LAZY = {
    # cache
    "CacheStats": "repro.sweep.cache",
    "ResultCache": "repro.sweep.cache",
    "default_cache": "repro.sweep.cache",
    "resolve_cache": "repro.sweep.cache",
    # keys
    "SIMULATOR_VERSION": "repro.sweep.keys",
    "UncacheableError": "repro.sweep.keys",
    "canonicalize": "repro.sweep.keys",
    "run_key": "repro.sweep.keys",
    "stable_hash": "repro.sweep.keys",
    # runner
    "PointOutcome": "repro.sweep.runner",
    "SweepPoint": "repro.sweep.runner",
    "SweepReport": "repro.sweep.runner",
    "SweepRunner": "repro.sweep.runner",
    "cached_simulate": "repro.sweep.runner",
    "matrix_points": "repro.sweep.runner",
    "run_matrix": "repro.sweep.runner",
    "run_point": "repro.sweep.runner",
    # runtime
    "ProcessMemos": "repro.sweep.runtime",
    "SharedWorkloadStore": "repro.sweep.runtime",
    "WorkerRuntime": "repro.sweep.runtime",
    "active_memos": "repro.sweep.runtime",
    "lpt_order": "repro.sweep.runtime",
    "process_memos": "repro.sweep.runtime",
    "warm_memos": "repro.sweep.runtime",
    # serialize
    "result_from_dict": "repro.sweep.serialize",
    "result_to_dict": "repro.sweep.serialize",
}

__all__ = list(_LAZY)


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.sweep' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
