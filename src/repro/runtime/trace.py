"""Per-task execution tracing.

Attach a :class:`TaskTraceRecorder` to an executor to capture one
record per executed task — where it was spawned, where it ran, when,
for how long, and how much of that was memory stall.  The recorder
powers placement analyses (how far did the scheduler move work? which
units were hot in which phase?) that aggregate counters cannot answer.

    system = repro.build_system("O")
    recorder = TaskTraceRecorder()
    system.executor.recorder = recorder
    ...run...
    print(recorder.placement_summary(system.interconnect.cost_matrix))

Since the telemetry subsystem landed, the recorder is a thin adapter
over a :class:`repro.telemetry.Timeline`: each task record is stored as
a complete ("X") span whose ``args`` carry the exact record fields, so
the same buffer both feeds the placement analyses below and exports to
Chrome/Perfetto alongside the rest of a run's events.  Pass an existing
timeline (e.g. ``telemetry.timeline``) to interleave task spans with
the phase/scheduler events of an instrumented run; by default the
recorder owns a private timeline bounded by ``capacity``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.telemetry import Timeline


@dataclass(frozen=True)
class TaskRecord:
    """One executed task."""

    task_id: int
    timestamp: int
    spawner_unit: int
    assigned_unit: int
    start_cycles: float      # phase-local start time
    duration_cycles: float
    stall_ns: float
    hint_lines: int
    stolen: bool


_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(TaskRecord))


class TaskTraceRecorder:
    """Collects :class:`TaskRecord` entries during a run.

    Thin adapter over a :class:`~repro.telemetry.Timeline`: records are
    stored as trace spans (name ``"task <id>"``, ``tid`` = executing
    unit) and reconstructed from the span ``args`` on iteration.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        timeline: Optional[Timeline] = None,
        frequency_ghz: float = 1.0,
    ):
        """``capacity`` bounds memory for long runs (oldest dropped);
        it is ignored when an external ``timeline`` is supplied (the
        timeline's own bound applies).  ``frequency_ghz`` converts the
        recorded cycle times to the nanoseconds trace viewers expect.
        """
        if timeline is None:
            timeline = Timeline(capacity=capacity)
        self.timeline = timeline
        self.frequency_ghz = frequency_ghz

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> Optional[int]:
        return self.timeline.capacity

    @property
    def dropped(self) -> int:
        return self.timeline.dropped

    def record(self, record: TaskRecord) -> None:
        freq = self.frequency_ghz
        self.timeline.complete(
            f"task {record.task_id}",
            ts_ns=record.start_cycles / freq,
            dur_ns=record.duration_cycles / freq,
            pid=0,
            tid=record.assigned_unit,
            **{name: getattr(record, name) for name in _RECORD_FIELDS},
        )

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __iter__(self) -> Iterator[TaskRecord]:
        for event in self.timeline:
            if event.ph == "X" and "task_id" in event.args:
                yield TaskRecord(
                    **{name: event.args[name] for name in _RECORD_FIELDS}
                )

    @property
    def records(self) -> List[TaskRecord]:
        return list(self)

    def clear(self) -> None:
        self.timeline.clear()

    # ------------------------------------------------------------------
    # analyses
    # ------------------------------------------------------------------
    def migrated_fraction(self) -> float:
        """Share of tasks that ran away from their spawner's unit."""
        records = self.records
        if not records:
            return 0.0
        moved = sum(1 for r in records
                    if r.assigned_unit != r.spawner_unit)
        return moved / len(records)

    def stolen_fraction(self) -> float:
        records = self.records
        if not records:
            return 0.0
        return sum(1 for r in records if r.stolen) / len(records)

    def mean_placement_distance(self, cost_matrix: np.ndarray) -> float:
        """Average spawner→executor distance cost over all tasks."""
        records = self.records
        if not records:
            return 0.0
        total = sum(
            float(cost_matrix[r.spawner_unit, r.assigned_unit])
            for r in records
        )
        return total / len(records)

    def per_unit_task_counts(self, num_units: int) -> np.ndarray:
        counts = np.zeros(num_units, dtype=np.int64)
        for r in self:
            counts[r.assigned_unit] += 1
        return counts

    def per_phase_task_counts(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for r in self:
            out[r.timestamp] = out.get(r.timestamp, 0) + 1
        return out

    def placement_summary(self, cost_matrix: np.ndarray) -> str:
        """Human-readable placement digest."""
        records = self.records
        return (
            f"tasks={len(records)} "
            f"migrated={self.migrated_fraction():.0%} "
            f"stolen={self.stolen_fraction():.0%} "
            f"mean spawn->run distance="
            f"{self.mean_placement_distance(cost_matrix):.1f} ns"
        )

    # ------------------------------------------------------------------
    def to_rows(self) -> List[Dict[str, object]]:
        """Flat dict rows (for CSV/JSON export)."""
        return [
            {name: getattr(r, name) for name in _RECORD_FIELDS}
            for r in self
        ]
