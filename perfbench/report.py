"""The traced pass and the per-layer report.

The traced pass repeats the untraced pass's cycles with the public
functions of each module wrapped (see :mod:`tracer`), then reports per
module the calls, the self seconds and their share of the traced wall
time, checks that the root spans cover that wall time (a gap beyond
the tolerance is a failed op), states the tracing overhead, and writes
a Chrome trace.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, List

from common import ROOT, Record, drive
from tracer import Tracer, install

#: the modules (layers) the report splits host time into.  ``cli`` is
#: ``import repro.cli`` inside traced CLI subprocesses; ``bench`` is the
#: benchmark's own harness: its loops, the answer checks it adds, and
#: the interpreter start and exit of each subprocess it waits for.
MODULES = ("workloads", "core.system", "core.scheduler",
           "core.memory_system", "core.vector_engine", "runtime", "faults",
           "telemetry", "arch.energy", "sweep", "observatory", "service",
           "cli", "bench")

#: per-function self times worth their own metric: the ones an
#: optimisation of a named layer is meant to move.
FUNCTIONS = {
    "access_many": "MemorySystem.access_many",
    "access": "MemorySystem.access",
    "choose_units_batch": "HybridScheduler.choose_units_batch",
    "rebalance_by_stealing": "rebalance_by_stealing",
    "resolve_phase": "VectorPhaseEngine.resolve_phase",
    "executor_run": "BulkSyncExecutor.run",
    "make_workload": "make_workload",
    "run_key": "run_key",
    "record_run": "record_run",
}

#: the stated coverage tolerance: the root spans (one per point or
#: call) must cover the traced wall time within this share.
COVERAGE_TOLERANCE_PCT = 2.0

#: the ROADMAP's cProfile split of O/pr, set beside the traced one.
ROADMAP_SPLIT = {
    ("batched", "MemorySystem.access_many"): 44.0,
    ("vector", "core.scheduler (placement)"): 28.0,
    ("vector", "rebalance_by_stealing"): 19.0,
}


# ----------------------------------------------------------------------
def import_split() -> Dict[str, float]:
    """``import repro.cli`` in a fresh process, self time by top-level
    package from ``-X importtime``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    split = {"repro": 0.0, "numpy": 0.0, "other": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        split[top if top in split else "other"] += float(self_us) / 1e6
    return {
        "cli.import_s": sum(split.values()),
        "cli.import_repro_s": split["repro"],
        "cli.import_numpy_s": split["numpy"],
        "cli.import_other_s": split["other"],
    }


def modelled(results: List[object]) -> Dict[str, float]:
    """Simulated statistics summed over the exact-tier results."""
    if not results:
        return {}
    l1 = sum(r.sram.l1_accesses for r in results)
    l1_miss = sum(r.sram.prefetch_accesses for r in results)
    probes = sum(r.cache.hits + r.cache.misses for r in results)
    return {
        "model.l1_hit_rate": 1.0 - l1_miss / l1 if l1 else 0.0,
        "model.traveller_hit_rate":
            sum(r.cache.hits for r in results) / probes if probes else 0.0,
        "model.hops_per_access":
            sum(r.traffic.inter_hops for r in results) / l1 if l1 else 0.0,
        "model.core_load_max_over_mean":
            max(r.load_imbalance() for r in results),
        "model.dram_accesses":
            float(sum(r.dram.total_accesses for r in results)),
    }


def _memo_counts() -> Dict[str, int]:
    from repro.sweep.runtime import runtime_counters

    return runtime_counters()


# ----------------------------------------------------------------------
def traced_pass(workload, seed: int, cycles: int, untraced_wall: float,
                rec: Record, specific: Dict[str, float],
                names: List[str]) -> Dict[str, float]:
    """Repeat ``cycles`` cycles traced; returns every per-layer metric
    in ``names`` (0 where the workload does not exercise it)."""
    from repro.insight.trace import merge_chrome_traces
    from repro.sweep.runtime import process_memos

    # Start the traced pass as cold as the untraced one, so the
    # difference between the two is the tracing overhead alone.
    workload.close()
    process_memos().__init__()
    workload.setup()
    tracer = Tracer()
    install(tracer)
    memo_before = _memo_counts()
    server_before = workload.server_seconds() \
        if hasattr(workload, "server_seconds") else 0.0
    trec = Record()
    start = time.perf_counter()
    try:
        drive(workload, trec, 0.0, cycles=cycles, tracer=tracer)
    finally:
        wall = time.perf_counter() - start
        tracer.remove()
    server_s = workload.server_seconds() - server_before \
        if hasattr(workload, "server_seconds") else 0.0
    memo_after = _memo_counts()
    rec.attempted += trec.attempted
    rec.failures.extend(trec.failures)

    metrics: Dict[str, float] = {name: 0.0 for name in names}
    table = tracer.module_table()
    covered = tracer.root_s
    gap_pct = 100.0 * (wall - covered) / wall
    if abs(gap_pct) > COVERAGE_TOLERANCE_PCT:
        rec.fail(f"coverage: root spans leave {gap_pct:.2f}% of the "
                 f"traced wall time unattributed (tolerance "
                 f"{COVERAGE_TOLERANCE_PCT}%)")
    for module in MODULES:
        row = table.get(module, {"calls": 0, "self_s": 0.0})
        metrics[f"{module}.calls"] = float(row["calls"])
        metrics[f"{module}.self_s"] = row["self_s"]
        metrics[f"{module}.self_share_pct"] = 100.0 * row["self_s"] / wall
    for short, name in FUNCTIONS.items():
        metrics[f"fn.{short}.self_s"] = tracer.agg.get(name, [0, 0, 0])[2]

    counts = tracer.counts
    lines = counts.get("access_many.lines", 0)
    access_calls = tracer.agg.get("MemorySystem.access", [0])[0]
    lookups = counts.get("sweep.cache_lookups", 0)

    def delta(*keys):
        return sum(memo_after.get(k, 0) - memo_before.get(k, 0)
                   for k in keys)

    memo_hits = delta("memo_workload_hits", "memo_topology_hits")
    memo_all = memo_hits + delta("memo_workload_misses",
                                 "memo_topology_misses")
    client_s = sum(tracer.agg.get(name, [0, 0.0])[1] for name in
                   ("ServiceClient.submit", "ServiceClient.result_bytes"))
    results = list(getattr(workload, "results", {}).values())
    metrics.update({
        "workloads.datasets_built":
            float(counts.get("workloads.datasets_built", 0)),
        "memory.access_many_lines": float(lines),
        "memory.access_calls": float(access_calls),
        "memory.fallback_line_ratio": access_calls / lines if lines else 0.0,
        "runtime.phases": float(sum(r.timestamps_executed for r in results)),
        "runtime.tasks": float(sum(r.tasks_executed for r in results)),
        "scheduler.steals": float(sum(r.steals for r in results)),
        "sweep.result_cache_hit_ratio":
            counts.get("sweep.cache_hits", 0) / lookups if lookups else 0.0,
        "sweep.memo_hit_ratio": memo_hits / memo_all if memo_all else 0.0,
        "service.client_s": client_s,
        "service.server_s": server_s,
        "service.transport_wait_s": client_s - server_s if server_s else 0.0,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.overhead_pct": 100.0 * (wall - untraced_wall) / untraced_wall,
        "trace.coverage_gap_pct": gap_pct,
        "trace.orphan_calls": float(tracer.orphan_calls),
        "trace.dropped_spans": float(tracer.dropped_spans),
        "host.slowdown": rec.probe.slowdown(),
    })
    if hasattr(workload, "resilience"):
        for key, value in workload.resilience().items():
            metrics[f"faults.{key}"] = value
    metrics.update(import_split())
    metrics.update(modelled(workload.exact_results()))
    metrics.update(specific)
    unknown = set(metrics) - set(names)
    if unknown:
        raise KeyError(f"per-layer metrics not declared in "
                       f"BENCHMARK.json: {sorted(unknown)}")

    _print_table(workload.name, table, tracer, wall, untraced_wall, covered)
    if hasattr(workload, "split_report"):
        workload.split_report(ROADMAP_SPLIT)
    out = ROOT / ".bench_out" / f"{workload.name}-trace.json"
    payload = merge_chrome_traces(
        tracer.chrome_events(1, f"perfbench {workload.name}"),
        metadata={"workload": workload.name, "seed": seed,
                  "functions": {name: {"calls": c, "total_s": t,
                                       "self_s": s}
                                for name, (c, t, s) in tracer.agg.items()}})
    out.parent.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    print(f"chrome trace: {out} ({len(tracer.spans)} spans, "
          f"{tracer.dropped_spans} dropped)")
    return metrics


def _print_table(name: str, table, tracer: Tracer, wall: float,
                 untraced: float, covered: float) -> None:
    print(f"\nper-module host time, {name} (traced pass {wall:.2f}s)")
    print(f"  {'module':20} {'calls':>10} {'total_s':>9} {'self_s':>9} "
          f"{'share':>7}")
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
    for module, row in rows:
        print(f"  {module:20} {row['calls']:10d} {row['total_s']:9.3f} "
              f"{row['self_s']:9.3f} {100 * row['self_s'] / wall:6.1f}%")
    top = next((m for m, _ in rows if m != "bench"), rows[0][0])
    print(f"  most self time outside the harness: {top}")
    gap = 100.0 * (wall - covered) / wall
    verdict = "ok" if abs(gap) <= COVERAGE_TOLERANCE_PCT else "FAILED"
    self_sum = sum(row["self_s"] for row in table.values())
    print(f"  coverage: root spans cover {covered:.3f}s of {wall:.3f}s "
          f"wall ({gap:+.2f}%, tolerance {COVERAGE_TOLERANCE_PCT}%): "
          f"{verdict}; module self times sum to {self_sum:.3f}s; "
          f"{tracer.orphan_calls} wrapped calls outside a root span")
    print(f"  tracing overhead: {wall - untraced:+.2f}s "
          f"({100 * (wall - untraced) / untraced:+.1f}% over the "
          f"untraced pass of the same cycles)")
    print("  top functions by self time:")
    for fname, (calls, total, self_s) in sorted(
            tracer.agg.items(), key=lambda kv: -kv[1][2])[:12]:
        print(f"    {fname:40} {int(calls):10d} {total:9.3f} {self_s:9.3f}")
