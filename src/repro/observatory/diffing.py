"""The run-to-run diff engine behind ``python -m repro diff A B``.

A *run reference* names one run three ways:

* a **history index** — ``0`` is the oldest ledger line, ``-1`` the
  newest (plain python indexing into
  :meth:`~repro.observatory.history.HistoryLedger.records`);
* a **run key** — the full 64-hex content-addressed key or any unique
  prefix (≥ 8 chars), resolved against the ledger and the result
  cache;
* a **file path** — a ``.repro_cache`` entry (``{schema, key, result}``)
  or a bare :func:`repro.sweep.serialize.result_to_dict` payload.

:func:`diff_runs` compares everything observable about the two runs:
the flat metric row of :func:`repro.analysis.export.result_row`
(cycles, hops, DRAM/SRAM traffic, traveller hit rate, energy), the
per-core active-cycle distribution, queue imbalance, and — when
telemetry sidecars exist — the NoC link-load matrix and the scheduler
decision/cost counters.  Each delta is annotated against a relative
threshold band, and *semantic* metrics (simulation outcomes) are kept
apart from *non-semantic* ones (wall time, engine choice): two
bit-identical runs under different access engines diff to **zero
semantic deltas** while still showing the wall-time difference.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.observatory.history import (
    HistoryLedger,
    RunRecord,
    default_ledger,
)

#: default relative band: |Δ|/|a| beyond this is flagged.  Simulations
#: are deterministic, so the band exists for cross-config diffs; the
#: same-key case must land exactly on zero.
DEFAULT_THRESHOLD = 0.001

_KEY_RE = re.compile(r"^[0-9a-f]{8,64}$")
_INDEX_RE = re.compile(r"^-?\d+$")

#: RunRecord headline metrics used when only ledger lines are
#: available (no full RunResult in the cache).
_RECORD_METRICS = (
    "makespan_cycles", "inter_hops", "intra_transfers", "tasks_executed",
    "steals", "cache_hit_rate", "load_imbalance", "energy_total_pj",
)

#: telemetry counters worth diffing (scheduler cost breakdown).
_SCHED_PREFIXES = ("scheduler.", "run.")


@dataclass
class MetricDelta:
    """One compared metric, threshold-annotated."""

    name: str
    a: float
    b: float
    threshold: float = DEFAULT_THRESHOLD
    semantic: bool = True

    @property
    def abs_delta(self) -> float:
        return self.b - self.a

    @property
    def rel_delta(self) -> float:
        if self.a == 0:
            return 0.0 if self.b == 0 else math.inf
        return (self.b - self.a) / abs(self.a)

    @property
    def significant(self) -> bool:
        rel = self.rel_delta
        return abs(rel) > self.threshold if math.isfinite(rel) else True

    def to_dict(self) -> Dict[str, Any]:
        rel = self.rel_delta
        return {
            "name": self.name, "a": self.a, "b": self.b,
            "abs_delta": self.abs_delta,
            "rel_delta": rel if math.isfinite(rel) else None,
            "threshold": self.threshold,
            "semantic": self.semantic,
            "significant": self.significant,
        }

    def render(self) -> str:
        rel = self.rel_delta
        rel_s = f"{rel:+.2%}" if math.isfinite(rel) else "new"
        flag = "Δ" if self.significant else "="
        return (f"  {flag} {self.name:28} {self.a:>16,.6g} -> "
                f"{self.b:>16,.6g}  ({rel_s})")


@dataclass
class RunHandle:
    """One resolved run: whatever could be loaded about it."""

    ref: str
    label: str = ""
    key: Optional[str] = None
    record: Optional[RunRecord] = None
    result: Optional[Any] = None          # RunResult, when available
    telemetry: Optional[Dict[str, Any]] = None
    wall_s: Optional[float] = None
    warnings: List[str] = field(default_factory=list)

    def describe(self) -> str:
        bits = [self.label or self.ref]
        if self.key:
            bits.append(f"key={self.key[:12]}…")
        if self.record is not None:
            if self.record.engine:
                bits.append(f"engine={self.record.engine}")
            if self.record.git_rev:
                bits.append(f"git={self.record.git_rev}")
            bits.append(f"source={self.record.source}")
        if self.wall_s is not None:
            bits.append(f"wall={self.wall_s:.2f}s")
        return " ".join(bits)


# ----------------------------------------------------------------------
# reference resolution
# ----------------------------------------------------------------------
def _result_from_payload(data: Dict[str, Any]):
    from repro.sweep.serialize import result_from_dict

    if "result" in data and isinstance(data["result"], dict):
        return result_from_dict(data["result"]), data.get("key")
    return result_from_dict(data), data.get("key")


def _attach_cache_entry(handle: RunHandle, cache) -> None:
    """Load the full result + telemetry sidecar for ``handle.key``."""
    if handle.key is None or cache is None:
        return
    entry = cache.path_for(handle.key)
    sidecar = cache.telemetry_path_for(handle.key)
    if handle.result is None:
        loaded = cache.load(handle.key)
        if loaded is not None:
            handle.result = loaded
    if sidecar.exists():
        handle.telemetry = cache.load_telemetry(handle.key)
        try:
            if entry.exists() and \
                    sidecar.stat().st_mtime < entry.stat().st_mtime:
                handle.warnings.append(
                    f"telemetry sidecar for {handle.key[:12]}… is older "
                    f"than its cached run JSON — re-run `repro trace` "
                    f"to refresh it"
                )
        except OSError:
            pass


def resolve_ref(
    ref: str,
    ledger: Optional[HistoryLedger] = None,
    cache: Any = "default",
) -> RunHandle:
    """Resolve one run reference (see module docstring) to a handle.

    Raises ``ValueError`` with an actionable message when the
    reference matches nothing.
    """
    from repro.sweep.cache import resolve_cache

    ledger = ledger if ledger is not None else default_ledger()
    store = resolve_cache(cache)
    handle = RunHandle(ref=str(ref))

    path = Path(str(ref))
    if path.is_file():
        try:
            data = json.loads(path.read_text())
            handle.result, key = _result_from_payload(data)
            handle.key = key
            handle.label = path.name
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"{ref}: not a readable run JSON "
                f"(cache entry or serialized RunResult): {exc}"
            ) from exc
        _attach_cache_entry(handle, store)
        return handle

    if _INDEX_RE.match(str(ref)):
        records = ledger.records()
        if not records:
            raise ValueError(
                f"history ledger {ledger.path} is empty — run a "
                f"simulation first (history records automatically)"
            )
        try:
            record = records[int(ref)]
        except IndexError:
            raise ValueError(
                f"history index {ref} out of range "
                f"(ledger holds {len(records)} records)"
            ) from None
        handle.record = record
        handle.key = record.key
        handle.wall_s = record.wall_s
        handle.label = f"[{ref}] {record.design}/{record.workload}"
        _attach_cache_entry(handle, store)
        return handle

    if _KEY_RE.match(str(ref).lower()):
        record = ledger.find_key(str(ref).lower())
        if record is not None:
            handle.record = record
            handle.key = record.key
            handle.wall_s = record.wall_s
            handle.label = f"{record.design}/{record.workload}"
        else:
            handle.key = str(ref).lower() if len(str(ref)) == 64 else None
        _attach_cache_entry(handle, store)
        if handle.result is None and handle.record is None:
            raise ValueError(
                f"run key {ref!r} matches nothing in the history ledger "
                f"or the result cache"
            )
        return handle

    raise ValueError(
        f"unrecognized run reference {ref!r}: expected a history index "
        f"(0, -1, …), a run-key prefix (≥ 8 hex chars), or a path to a "
        f"run JSON file"
    )


# ----------------------------------------------------------------------
# the diff itself
# ----------------------------------------------------------------------
@dataclass
class RunDiff:
    """Structured comparison of two runs."""

    a: RunHandle
    b: RunHandle
    deltas: List[MetricDelta] = field(default_factory=list)
    wall: Optional[MetricDelta] = None
    warnings: List[str] = field(default_factory=list)
    threshold: float = DEFAULT_THRESHOLD
    #: bottleneck-class transition (repro.insight.attribution):
    #: ``{"a": ..., "b": ..., "changed": bool}`` when both runs carried
    #: enough signal to classify, else None.
    bottleneck: Optional[Dict[str, Any]] = None

    @property
    def semantic_deltas(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.semantic and d.significant]

    @property
    def identical(self) -> bool:
        return not self.semantic_deltas

    def to_dict(self) -> Dict[str, Any]:
        return {
            "a": self.a.describe(),
            "b": self.b.describe(),
            "threshold": self.threshold,
            "identical": self.identical,
            "semantic_deltas": len(self.semantic_deltas),
            "metrics": [d.to_dict() for d in self.deltas],
            "wall": self.wall.to_dict() if self.wall else None,
            "warnings": list(self.warnings),
            "bottleneck": dict(self.bottleneck)
            if self.bottleneck else None,
        }

    def render(self, verbose: bool = False) -> str:
        return render_diff(self.to_dict(), verbose=verbose)


def render_diff(payload: Dict[str, Any], verbose: bool = False) -> str:
    """The text form of a :meth:`RunDiff.to_dict` payload.

    One renderer for a local diff and for the ``/v1/diff`` answer of a
    server: every line reads a payload field, so the two print the
    same text for the same runs.
    """
    deltas = [MetricDelta(name=m["name"], a=m["a"], b=m["b"],
                          threshold=m["threshold"],
                          semantic=m["semantic"])
              for m in payload["metrics"]]
    semantic = [d for d in deltas if d.semantic and d.significant]
    lines = [f"run A: {payload['a']}", f"run B: {payload['b']}"]
    for warning in payload["warnings"]:
        lines.append(f"warning: {warning}")
    lines.append(
        f"{len(deltas)} metrics compared, "
        f"{payload['semantic_deltas']} beyond the "
        f"±{payload['threshold']:.2%} band"
    )
    lines.extend(d.render() for d in (deltas if verbose else semantic))
    bottleneck = payload["bottleneck"]
    if bottleneck:
        arrow = "->" if bottleneck["changed"] else "== (unchanged)"
        lines.append(
            f"bottleneck class: {bottleneck['a']} {arrow}"
            + (f" {bottleneck['b']}" if bottleneck["changed"] else "")
        )
    if payload["identical"]:
        lines.append("no semantic deltas: the runs are equivalent")
    wall = payload["wall"]
    if wall is not None and (wall["a"] or wall["b"]):
        rel = wall["rel_delta"]
        rel_s = f"{rel:+.1%}" if rel is not None else "n/a"
        lines.append(
            f"wall time (non-semantic): {wall['a']:.2f}s -> "
            f"{wall['b']:.2f}s ({rel_s})"
        )
    return "\n".join(lines)


def _numeric_row(handle: RunHandle) -> Dict[str, float]:
    """Flat metric row for one handle: full result when available,
    ledger headline metrics otherwise."""
    if handle.result is not None:
        from repro.analysis.export import result_row

        row = result_row(handle.result)
        out = {k: float(v) for k, v in row.items()
               if isinstance(v, (int, float))}
        cycles = handle.result.active_cycles_per_core
        if cycles.size:
            out["active_cycles.max"] = float(cycles.max())
            out["active_cycles.mean"] = float(cycles.mean())
            out["active_cycles.std"] = float(cycles.std())
        return out
    if handle.record is not None:
        return {name: float(getattr(handle.record, name))
                for name in _RECORD_METRICS}
    return {}


def _telemetry_metrics(tel: Dict[str, Any]) -> Dict[str, float]:
    """Scheduler/NoC metrics derived from a telemetry sidecar dict."""
    out: Dict[str, float] = {}
    counters = tel.get("counters") or {}
    for name, value in counters.items():
        if any(name.startswith(p) for p in _SCHED_PREFIXES) and \
                isinstance(value, (int, float)):
            out[f"telemetry.{name}"] = float(value)
    matrix = tel.get("link_matrix")
    if matrix:
        flat = [float(v) for line in matrix for v in line]
        if flat:
            out["noc.link_load.total"] = sum(flat)
            out["noc.link_load.max"] = max(flat)
    return out


def _bottleneck_profile(handle: RunHandle):
    """Best-effort bottleneck attribution for one handle (or None)."""
    from repro.insight.attribution import attribute_point

    row = _numeric_row(handle)
    if not row:
        return None
    config = None
    mesh = handle.record.mesh if handle.record is not None else ""
    if mesh:
        try:
            from repro.campaign.resolver import parse_mesh
            from repro.config import experiment_config

            config = experiment_config().scaled(*parse_mesh(mesh))
        except Exception:
            config = None
    cycles = None
    if handle.result is not None:
        vec = handle.result.active_cycles_per_core
        if getattr(vec, "size", 0):
            cycles = [float(v) for v in vec]
    try:
        return attribute_point(row, telemetry=handle.telemetry,
                               config=config, active_cycles=cycles)
    except Exception:
        return None


def diff_runs(
    a: RunHandle,
    b: RunHandle,
    threshold: float = DEFAULT_THRESHOLD,
) -> RunDiff:
    """Compare two resolved runs into a :class:`RunDiff`."""
    diff = RunDiff(a=a, b=b, threshold=threshold)
    diff.warnings.extend(a.warnings)
    diff.warnings.extend(b.warnings)

    row_a, row_b = _numeric_row(a), _numeric_row(b)
    if a.telemetry and b.telemetry:
        version_a = int(a.telemetry.get("version") or 1)
        version_b = int(b.telemetry.get("version") or 1)
        if version_a != version_b:
            diff.warnings.append(
                f"telemetry summary schema versions differ "
                f"(A is v{version_a}, B is v{version_b}) — counter and "
                f"series layouts may not be comparable"
            )
        row_a.update(_telemetry_metrics(a.telemetry))
        row_b.update(_telemetry_metrics(b.telemetry))
    elif a.telemetry or b.telemetry:
        diff.warnings.append(
            "only one run has a telemetry sidecar — NoC link-load and "
            "scheduler-cost breakdowns were not compared"
        )

    shared = [k for k in row_a if k in row_b]
    if not shared:
        diff.warnings.append(
            "the runs share no comparable metrics (one may be a bare "
            "ledger line whose cache entry was evicted)"
        )
    for name in sorted(shared):
        diff.deltas.append(MetricDelta(
            name=name, a=row_a[name], b=row_b[name], threshold=threshold,
        ))

    # Per-core distribution: element-wise largest gap when comparable.
    if a.result is not None and b.result is not None:
        ca = a.result.active_cycles_per_core
        cb = b.result.active_cycles_per_core
        if ca.size and ca.size == cb.size:
            diff.deltas.append(MetricDelta(
                name="active_cycles.l_inf",
                a=0.0, b=float(abs(cb - ca).max()), threshold=threshold,
            ))

    wall_a = a.wall_s if a.wall_s is not None else 0.0
    wall_b = b.wall_s if b.wall_s is not None else 0.0
    diff.wall = MetricDelta(name="wall_s", a=wall_a, b=wall_b,
                            threshold=threshold, semantic=False)

    profile_a = _bottleneck_profile(a)
    profile_b = _bottleneck_profile(b)
    if profile_a is not None and profile_b is not None:
        diff.bottleneck = {
            "a": profile_a.primary,
            "b": profile_b.primary,
            "changed": profile_a.primary != profile_b.primary,
            "quadrant_a": profile_a.quadrant,
            "quadrant_b": profile_b.quadrant,
        }
    return diff


def diff_refs(
    ref_a: str,
    ref_b: str,
    ledger: Optional[HistoryLedger] = None,
    cache: Any = "default",
    threshold: float = DEFAULT_THRESHOLD,
) -> RunDiff:
    """Resolve two references and diff them (the CLI entry point)."""
    return diff_runs(
        resolve_ref(ref_a, ledger=ledger, cache=cache),
        resolve_ref(ref_b, ledger=ledger, cache=cache),
        threshold=threshold,
    )
