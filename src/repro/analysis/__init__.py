"""Run results, statistics, and paper-style reporting.

Names load on first access (PEP 562), so reading one cached
:class:`RunResult` does not import the plotting or export helpers.
"""

from __future__ import annotations

from typing import Any

_LAZY = {
    "RunResult": "repro.analysis.metrics",
    "geomean": "repro.analysis.stats",
    "imbalance_ratio": "repro.analysis.stats",
    "quartiles": "repro.analysis.stats",
    "distribution_summary": "repro.analysis.stats",
    "format_comparison_table": "repro.analysis.reporting",
    "format_series": "repro.analysis.reporting",
    "normalize": "repro.analysis.reporting",
    "bar_chart": "repro.analysis.plotting",
    "box_plot": "repro.analysis.plotting",
    "grouped_bar_chart": "repro.analysis.plotting",
    "line_series": "repro.analysis.plotting",
    "sparkline": "repro.analysis.plotting",
    "to_csv": "repro.analysis.export",
    "to_json": "repro.analysis.export",
    "write_csv": "repro.analysis.export",
    "write_json": "repro.analysis.export",
}

__all__ = list(_LAZY)


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.analysis' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
