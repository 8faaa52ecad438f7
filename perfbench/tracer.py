"""In-process tracing of the simulator's public functions.

The tracer wraps functions and methods of the ``repro`` package from the
outside (nothing under ``src/`` knows about it).  Every wrapped call
adds to an aggregate ``[calls, total seconds, self seconds]`` record;
calls of functions marked as spans (once per point or per phase) are
also kept as Chrome ``trace_event`` spans.  A call's self time is its
duration minus the time spent in wrapped calls it made, so the self
times of all calls made inside a root span add up to that span.  Root
spans are the harness's own (one per point or call); the tracer sums
their time, and counts every wrapped call that ends outside one, whose
time no point or call accounts for.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: spans beyond this many are counted but not kept for the trace file.
MAX_SPANS = 100_000


class Tracer:
    def __init__(self) -> None:
        #: name -> [calls, total_s, self_s]
        self.agg: Dict[str, List[float]] = {}
        #: name -> module (layer) the name belongs to
        self.module_of: Dict[str, str] = {}
        #: extra counters (lines, datasets, ...) keyed by name
        self.counts: Dict[str, float] = {}
        self.spans: List[Tuple[str, float, float, int]] = []
        self.dropped_spans = 0
        #: seconds inside root harness spans
        self.root_s = 0.0
        #: wrapped calls (or merged subprocesses) outside any root span
        self.orphan_calls = 0
        self.t0 = time.perf_counter()
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _close(self, name: str, start: float, frame: List[float],
               span: bool, harness: bool = False) -> None:
        """Account one finished call."""
        elapsed = time.perf_counter() - start
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        elif harness:
            self.root_s += elapsed
        else:
            self.orphan_calls += 1
        rec = self.agg[name]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - frame[0]
        if span:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((name, start, elapsed, len(stack)))
            else:
                self.dropped_spans += 1

    def _wrapper(self, func: Callable, name: str, span: bool,
                 count: Optional[Callable]) -> Callable:
        self.agg.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        counts = self.counts
        close = self._close
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                close(name, start, frame, span)
                if count is not None:
                    for key, amount in count(args, kwargs, result):
                        counts[key] = counts.get(key, 0) + amount

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def wrap_method(self, cls: type, attr: str, module: str,
                    span: bool = False,
                    count: Optional[Callable] = None) -> None:
        """Wrap ``cls.attr`` where ``cls`` itself defines it."""
        func = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        self.module_of[name] = module
        setattr(cls, attr, self._wrapper(func, name, span, count))
        self._undo.append((cls, attr, func))

    def wrap_function(self, module_name: str, attr: str, module: str,
                      span: bool = False,
                      count: Optional[Callable] = None) -> None:
        """Wrap a module-level function and every ``repro`` module that
        bound it by name with ``from ... import``."""
        home = importlib.import_module(module_name)
        func = getattr(home, attr)
        name = attr
        self.module_of[name] = module
        traced = self._wrapper(func, name, span, count)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            if getattr(mod, attr, None) is func:
                setattr(mod, attr, traced)
                self._undo.append((mod, attr, func))

    def remove(self) -> None:
        for owner, attr, func in reversed(self._undo):
            setattr(owner, attr, func)
        self._undo.clear()

    # ------------------------------------------------------------------
    def span(self, name: str, module: str):
        """A harness span (one point, one call) as a context manager."""
        self.module_of.setdefault(name, module)
        return _HarnessSpan(self, name)

    def snapshot(self) -> Dict[str, List[float]]:
        return {name: list(rec) for name, rec in self.agg.items()}

    def since(self, snapshot: Dict[str, List[float]]) -> Dict[str, List]:
        """Per-function (calls, total, self) added since ``snapshot``."""
        zero = [0, 0.0, 0.0]
        return {name: [a - b for a, b in zip(rec, snapshot.get(name, zero))]
                for name, rec in self.agg.items()}

    def merge(self, child: Dict[str, Any]) -> None:
        """Fold in the aggregates a traced subprocess wrote; its covered
        time counts as a child of the span that waited for it."""
        covered = 0.0
        for name, (calls, total, self_s) in child["agg"].items():
            rec = self.agg.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
            covered += self_s
            self.module_of.setdefault(name, child["module_of"][name])
        for key, amount in child["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + amount
        if self._stack:
            self._stack[-1][0] += covered
        else:
            self.orphan_calls += 1

    def module_table(self) -> Dict[str, Dict[str, float]]:
        """Per module: calls, summed function totals and self seconds.

        ``total_s`` counts a call nested in another call of the same
        module twice; ``self_s`` counts every instant once."""
        table: Dict[str, Dict[str, float]] = {}
        for name, (calls, total, self_s) in self.agg.items():
            row = table.setdefault(self.module_of.get(name, "?"),
                                   {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0})
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += self_s
        return table

    def chrome_events(self, pid: int, process_name: str) -> List[Dict]:
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": process_name}},
        ]
        for name, start, elapsed, depth in self.spans:
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": 1,
                "ts": round((start - self.t0) * 1e6, 3),
                "dur": round(elapsed * 1e6, 3),
                "cat": self.module_of.get(name, "?"),
                "args": {"depth": depth},
            })
        return events


class _HarnessSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        tracer.agg.setdefault(name, [0, 0.0, 0.0])

    def __enter__(self):
        self.frame = [0.0]
        self.tracer._stack.append(self.frame)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.name, self.start, self.frame, True,
                           harness=True)


# ----------------------------------------------------------------------
# what the traced run wraps
# ----------------------------------------------------------------------
def _lines_of(args, kwargs, result):
    lines = args[2] if len(args) > 2 else kwargs["lines"]
    return (("access_many.lines", len(lines)),)


def _one(key: str) -> Callable:
    return lambda args, kwargs, result: ((key, 1),)


def _cache_lookup(args, kwargs, result):
    return (("sweep.cache_lookups", 1),
            ("sweep.cache_hits", int(result is not None)))


def install(tracer: Tracer) -> None:
    """Wrap every public function the benchmark attributes time to.

    Span functions run once per point or per phase; the rest run per
    task, per batch or per line and are only aggregated.
    """
    import repro  # noqa: F401  (registers workloads)
    from repro.arch.energy import EnergyModel
    from repro.core.memory_system import MemorySystem
    from repro.core.scheduler.base import Scheduler, SchedulerContext
    from repro.core.scheduler.hybrid import HybridScheduler
    from repro.core.system import NdpSystem
    from repro.core.vector_engine import VectorPhaseEngine
    from repro.faults.controller import FaultController
    from repro.runtime.executor import BulkSyncExecutor
    from repro.runtime.workload_exchange import WorkloadExchange
    from repro.service.client import ServiceClient
    from repro.sweep.cache import ResultCache
    from repro.sweep.runner import SweepRunner
    from repro.telemetry.core import Telemetry
    from repro.workloads.base import WORKLOAD_FACTORIES

    tracer.wrap_function("repro.workloads.base", "make_workload",
                         "workloads", span=True,
                         count=_one("workloads.datasets_built"))
    for cls in set(WORKLOAD_FACTORIES.values()):
        for attr in ("setup", "root_tasks", "on_barrier"):
            if attr in cls.__dict__:
                tracer.wrap_method(cls, attr, "workloads", span=True)
        if "verify" in cls.__dict__:
            # the answer checks are the harness's, not the simulator's
            tracer.wrap_method(cls, "verify", "bench")

    tracer.wrap_function("repro.simulate", "simulate", "core.system",
                         span=True)
    tracer.wrap_function("repro.core.system", "build_system",
                         "core.system", span=True)
    tracer.wrap_method(NdpSystem, "run", "core.system", span=True)

    for cls in _subclasses(Scheduler):
        if "choose_unit" in cls.__dict__:
            tracer.wrap_method(cls, "choose_unit", "core.scheduler")
    tracer.wrap_method(HybridScheduler, "choose_units_batch",
                       "core.scheduler")
    tracer.wrap_method(SchedulerContext, "task_workload", "core.scheduler")
    tracer.wrap_method(SchedulerContext, "mem_cost_vector",
                       "core.scheduler")
    tracer.wrap_function("repro.core.scheduler.work_stealing",
                         "rebalance_by_stealing", "core.scheduler",
                         span=True)

    tracer.wrap_method(MemorySystem, "access_many", "core.memory_system",
                       count=_lines_of)
    tracer.wrap_method(MemorySystem, "access", "core.memory_system")
    tracer.wrap_method(MemorySystem, "write", "core.memory_system")
    tracer.wrap_method(MemorySystem, "end_timestamp", "core.memory_system",
                       span=True)

    tracer.wrap_method(VectorPhaseEngine, "resolve_phase",
                       "core.vector_engine", span=True)
    tracer.wrap_method(VectorPhaseEngine, "book_writes",
                       "core.vector_engine", span=True)

    tracer.wrap_method(BulkSyncExecutor, "run", "runtime", span=True)
    tracer.wrap_method(WorkloadExchange, "force_exchange", "runtime",
                       span=True)
    tracer.wrap_method(WorkloadExchange, "advance", "runtime")

    tracer.wrap_method(FaultController, "on_phase_start", "faults",
                       span=True)

    for attr in ("bind", "phase_begin", "phase_end", "sample", "run_end",
                 "decision", "summary"):
        tracer.wrap_method(Telemetry, attr, "telemetry",
                           span=attr in ("phase_begin", "phase_end"))

    tracer.wrap_method(EnergyModel, "integrate", "arch.energy", span=True)

    tracer.wrap_method(SweepRunner, "run", "sweep", span=True)
    tracer.wrap_method(ResultCache, "load", "sweep", span=True,
                       count=_cache_lookup)
    tracer.wrap_method(ResultCache, "store", "sweep", span=True)
    tracer.wrap_function("repro.sweep.keys", "run_key", "sweep")

    tracer.wrap_function("repro.observatory.history", "record_run",
                         "observatory", span=True)

    tracer.wrap_method(ServiceClient, "submit", "service", span=True)
    tracer.wrap_method(ServiceClient, "result_bytes", "service", span=True)


def _subclasses(cls: type) -> List[type]:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out
