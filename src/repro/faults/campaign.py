"""Fault campaigns: a healthy reference plus faulted runs, via the sweep.

:func:`run_fault_campaign` fans a set of fault schedules over the sweep
engine (parallel workers, content-addressed cache) alongside one
fault-free reference of the same (design, workload, config).  Each
faulted result's ``resilience.slowdown_vs_healthy`` is filled from the
reference, and :class:`CampaignResult` answers the acceptance question
directly: did the machine lose any tasks?

Cache note: ``slowdown_vs_healthy`` is recomputed from the healthy
reference on every campaign invocation (it is a *relative* metric), so
a cached faulted point keeps its stored counters but gets a fresh
slowdown value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.metrics import RunResult
from repro.config import SystemConfig
from repro.faults.schedule import FaultSchedule
from repro.sweep.runner import SweepPoint, SweepRunner


@dataclass
class CampaignResult:
    """One fault campaign: the healthy reference plus faulted runs."""

    design: str
    workload: str
    healthy: RunResult
    #: schedule label -> faulted result, in submission order.
    faulted: Dict[str, RunResult] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def lost_tasks(self, label: str) -> int:
        """Tasks the faulted run failed to execute vs the healthy one.

        Zero is the resilience guarantee: every task stranded on a dead
        unit was re-placed and executed elsewhere.
        """
        return (self.healthy.tasks_executed
                - self.faulted[label].tasks_executed)

    @property
    def total_lost_tasks(self) -> int:
        return sum(self.lost_tasks(label) for label in self.faulted)

    def slowdown(self, label: str) -> float:
        healthy = self.healthy.makespan_cycles
        if healthy <= 0:
            return float("inf")
        return self.faulted[label].makespan_cycles / healthy


def run_fault_campaign(
    design: str,
    workload,
    schedules: Union[FaultSchedule, Sequence[FaultSchedule],
                     Dict[str, FaultSchedule]],
    config: Optional[SystemConfig] = None,
    cache="default",
    jobs: Optional[int] = None,
    events=None,
    runtime=None,
) -> CampaignResult:
    """Run ``workload`` on ``design`` healthy and under each schedule.

    ``schedules`` may be one schedule, a sequence (labelled ``f0``,
    ``f1``, ...), or a ``{label: schedule}`` dict.  All points (healthy
    reference included) go through the sweep engine, so repeated
    campaigns hit the cache and a crashing point is captured, not fatal.

    ``events`` takes the typed per-point stream of
    :mod:`repro.observatory.progress` (cached/done/failed, live TTY
    status or plain lines).  ``runtime`` follows
    :class:`~repro.sweep.runner.SweepRunner`: ``None`` runs in a
    private warm :class:`~repro.sweep.runtime.WorkerRuntime`, an
    instance is shared across calls.  Every point also lands in the
    run-history ledger via the sweep engine, so campaigns show up in
    ``repro diff`` / ``repro regress --history`` like any other run.
    """
    if isinstance(schedules, FaultSchedule):
        schedules = {"f0": schedules}
    elif not isinstance(schedules, dict):
        schedules = {f"f{i}": s for i, s in enumerate(schedules)}
    for label, sched in schedules.items():
        if not sched:
            raise ValueError(f"schedule {label!r} is empty")
        sched.validate()

    points = [SweepPoint(design=design, workload=workload, config=config,
                         label=f"{design}/healthy")]
    labels = list(schedules)
    points.extend(
        SweepPoint(design=design, workload=workload, config=config,
                   fault_schedule=schedules[label],
                   label=f"{design}/{label}")
        for label in labels
    )

    runner = SweepRunner(cache=cache, jobs=jobs, events=events,
                         runtime=runtime)
    report = runner.run(points)

    healthy_outcome = report.outcomes[0]
    if not healthy_outcome.ok:
        raise RuntimeError(
            f"healthy reference run failed:\n{healthy_outcome.error}"
        )
    healthy = healthy_outcome.result

    result = CampaignResult(
        design=design,
        workload=healthy.workload,
        healthy=healthy,
    )
    for label, outcome in zip(labels, report.outcomes[1:]):
        if not outcome.ok:
            result.failures.append(label)
            continue
        faulted = outcome.result
        if faulted.resilience is not None and healthy.makespan_cycles > 0:
            faulted.resilience.slowdown_vs_healthy = (
                faulted.makespan_cycles / healthy.makespan_cycles
            )
        result.faulted[label] = faulted
    return result
