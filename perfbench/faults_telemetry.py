"""``faults_telemetry``: the per-line access fallback under faults and
telemetry.

pr, bfs and spmv under B and O, on both tiers, each run three ways: a
healthy run (the reference the other two are checked against), a run
under a seeded ``make_random_schedule`` mix of unit, link and vault
faults, and a run with ``Telemetry()`` on.  Faults and telemetry force
``MemorySystem.access_many`` onto the per-line ``access`` loop instead
of the fused kernel, and telemetry moves the vector tier onto the exact
one, so a kernel gain that costs these paths shows up here.  The three
ways are the workload's three op kinds.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Tuple

from common import (DEFAULT_SEED, Op, Record, check_accuracy,
                    check_digests, dataset_kwargs, result_digest,
                    system_seed)

#: quarter-size datasets: at the defaults one cycle of the 36 runs takes
#: about 72 s on a 2-core host, too long for one benchmark run.
WORKLOADS = {"pr": {"num_vertices": 512}, "bfs": {"num_vertices": 1024},
             "spmv": {"rows": 512}}
DESIGNS = ("B", "O")
TIERS = ("batched", "vector")

#: one unit failure, two link failures and two slowed vaults per run.
FAULT_MIX = {"unit_fails": 1, "link_fails": 2, "vault_slowdowns": 2}


class FaultsTelemetry:
    #: host seconds of one cycle (36 runs) on the reference host of
    #: README.md; ``--seconds`` over this sets the number of cycles.
    cycle_s = 18.0
    name = "faults_telemetry"
    kinds = ("faulted", "telemetry", "healthy")

    def __init__(self, seed: int, clock) -> None:
        self.seed = seed
        self.clock = clock
        self.runtime = None
        #: first result of every (mode, tier, label)
        self.results: Dict[Tuple[str, str, str], object] = {}

    def setup(self) -> None:
        from repro.arch.topology import Topology
        from repro.campaign.resolver import resolve_system_config
        from repro.faults import make_random_schedule
        from repro.sweep.runtime import WorkerRuntime, process_memos

        self.runtime = WorkerRuntime(jobs=1)
        memos = process_memos()
        memos.workloads.clear()
        configs = {tier: resolve_system_config(
            engine=tier, seed=system_seed(self.seed)) for tier in TIERS}
        config = configs["batched"]
        topology = Topology(config.topology,
                            num_groups=config.cache.num_groups())
        self.schedule = make_random_schedule(
            topology.num_units, topology.mesh_links(),
            seed=config.seed, **FAULT_MIX)
        self.points = []
        with self.runtime.activate():
            for workload, size in WORKLOADS.items():
                data = memos.workload_from_factory(
                    workload, dict(size, **dataset_kwargs(workload,
                                                          self.seed)))
                for design in DESIGNS:
                    for tier in TIERS:
                        self.points.append(
                            (f"{design}/{workload}", tier, design, data,
                             configs[tier]))

    def run_cycle(self, rec: Record, tracer=None) -> None:
        for point in self.points:
            self._run_point(point, rec, tracer)

    def _simulate(self, mode: str, point, rec: Record, tracer):
        from repro import simulate
        from repro.telemetry import Telemetry

        label, tier, design, data, config = point
        kwargs = {}
        if mode == "faulted":
            kwargs["fault_schedule"] = self.schedule
        elif mode == "telemetry":
            kwargs["telemetry"] = Telemetry()
        span = tracer.span(f"{mode} {tier} {label}", "bench") \
            if tracer else contextlib.nullcontext()
        result = None
        with span, self.clock.excluded() as seconds:
            try:
                with self.runtime.activate():
                    result = simulate(design, data, config=config,
                                      **kwargs)
            except Exception as exc:  # a failed op, reported not raised
                rec.fail(f"{mode} {tier} {label}: "
                         f"{type(exc).__name__}: {exc}")
        rec.add(Op(mode, f"{tier} {label}", seconds[0],
                   result.instructions if result else 0.0))
        if result is not None:
            self.results.setdefault((mode, tier, label), result)
        return result

    def _run_point(self, point, rec: Record, tracer) -> None:
        label, tier = point[0], point[1]
        healthy = self._simulate("healthy", point, rec, tracer)
        faulted = self._simulate("faulted", point, rec, tracer)
        self._simulate("telemetry", point, rec, tracer)
        if healthy is not None and faulted is not None and \
                faulted.tasks_executed != healthy.tasks_executed:
            rec.fail(f"faulted {tier} {label}: {faulted.tasks_executed} "
                     f"tasks executed, healthy ran "
                     f"{healthy.tasks_executed}")

    def check(self, rec: Record) -> Dict[str, float]:
        if self.seed == DEFAULT_SEED:
            check_digests(self.name, self.observed_digests(), rec)
        divergent = 0
        for (mode, tier, label), result in self.results.items():
            healthy = self.results.get(("healthy", tier, label))
            if mode == "telemetry" and healthy is not None:
                divergent += result_digest(result) != \
                    result_digest(healthy)
        figures = {
            "faulted_sim_minstr_per_s": rec.minstr_per_s("faulted"),
            "telemetry_sim_minstr_per_s": rec.minstr_per_s("telemetry"),
            "telemetry_divergent_points": float(divergent),
        }
        check_accuracy(self.name, self.seed, figures, rec)
        return figures

    def observed_digests(self) -> Dict[str, str]:
        return {f"{mode} {label}": result_digest(result)
                for (mode, tier, label), result in self.results.items()
                if tier == "batched"}

    def exact_results(self) -> List[object]:
        return [r for (mode, tier, _), r in self.results.items()
                if tier == "batched" and mode == "healthy"]

    def resilience(self) -> Dict[str, float]:
        totals = {"tasks_reexecuted": 0.0, "unreachable_accesses": 0.0}
        for (mode, _, _), result in self.results.items():
            if mode == "faulted" and result.resilience is not None:
                for key in totals:
                    totals[key] += getattr(result.resilience, key)
        return totals

    def pids(self) -> List[int]:
        return []

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.close()
            self.runtime = None
